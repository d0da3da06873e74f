"""Sparse joint distributions over binary fact assignments.

A :class:`JointDistribution` is the paper's "output set with probabilities"
(Table II): a probability distribution over complete truth assignments of an
ordered set of facts.  We store only the support (assignments with non-zero
probability) as a mapping from bitmask to probability, which keeps entropy,
marginalisation and Bayesian updates linear in the support size — the same
``|O|`` the paper's complexity analysis is written in.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.assignment import Assignment, mask_from_bools, project_mask
from repro.core.bitplanes import pack_masks, unpack_planes
from repro.core.entropy import bit_column, entropy_bits, project_columns
from repro.exceptions import InvalidDistributionError, InvalidFactError

#: Supports at least this large use the contiguous-array fast path for
#: entropy, marginals and marginalisation; smaller ones stay on the dict path
#: (array construction would dominate).  The size alone decides, not whether
#: the arrays are cached, so reading a distribution never changes its floats.
_VECTOR_MIN_SUPPORT = 32


def entropy_of(probabilities: Iterable[float]) -> float:
    """Shannon entropy (base 2) of an iterable of probabilities.

    Zero-probability terms contribute nothing; the input is assumed to sum
    to one (callers normalise first).
    """
    total = 0.0
    for p in probabilities:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def _mask_keys(masks: np.ndarray) -> List[int]:
    """Either :meth:`JointDistribution.support_arrays` mask layout as ints."""
    return unpack_planes(masks) if masks.ndim == 2 else masks.tolist()


class JointDistribution:
    """A normalised probability distribution over truth assignments.

    Parameters
    ----------
    fact_ids:
        Ordered fact identifiers; position ``j`` maps to bit ``j`` of the
        assignment bitmasks.
    probabilities:
        Mapping from assignment bitmask to (possibly unnormalised) probability
        mass.  Masks must lie in ``[0, 2**n)``; negative masses are rejected.
    normalise:
        When true (the default), the masses are rescaled to sum to one.
    """

    __slots__ = ("_fact_ids", "_positions", "_probs", "_arrays")

    def __init__(
        self,
        fact_ids: Sequence[str],
        probabilities: Mapping[int, float],
        normalise: bool = True,
    ):
        if not fact_ids:
            raise InvalidDistributionError("a distribution needs at least one fact")
        self._fact_ids: Tuple[str, ...] = tuple(fact_ids)
        if len(set(self._fact_ids)) != len(self._fact_ids):
            raise InvalidDistributionError("fact ids must be unique")
        self._positions: Dict[str, int] = {
            fact_id: position for position, fact_id in enumerate(self._fact_ids)
        }

        limit = 1 << len(self._fact_ids)
        cleaned: Dict[int, float] = {}
        total = 0.0
        for mask, probability in probabilities.items():
            if not 0 <= mask < limit:
                raise InvalidDistributionError(
                    f"assignment mask {mask} out of range for {len(self._fact_ids)} facts"
                )
            if math.isnan(probability) or probability < 0.0:
                raise InvalidDistributionError(
                    f"probability for mask {mask} must be non-negative, got {probability}"
                )
            # Only exactly-zero mass is dropped: an absolute epsilon cutoff
            # biases conditioned marginals when the support mixes very large
            # and very small (but real) masses.
            if probability > 0.0:
                cleaned[mask] = cleaned.get(mask, 0.0) + probability
                total += probability
        if not cleaned or total <= 0.0:
            raise InvalidDistributionError("distribution has no probability mass")

        if normalise:
            self._probs = {mask: p / total for mask, p in cleaned.items()}
        else:
            if abs(total - 1.0) > 1e-6:
                raise InvalidDistributionError(
                    f"probabilities sum to {total:.6f}, expected 1.0 "
                    "(pass normalise=True to rescale)"
                )
            self._probs = dict(cleaned)
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_assignments(
        cls,
        fact_ids: Sequence[str],
        assignments: Mapping[Union[Tuple[bool, ...], Assignment], float],
        normalise: bool = True,
    ) -> "JointDistribution":
        """Build a distribution from explicit truth-tuples (or Assignments)."""
        probs: Dict[int, float] = {}
        width = len(fact_ids)
        for key, probability in assignments.items():
            if isinstance(key, Assignment):
                if key.width != width:
                    raise InvalidDistributionError(
                        f"assignment width {key.width} does not match {width} facts"
                    )
                mask = key.mask
            else:
                if len(key) != width:
                    raise InvalidDistributionError(
                        f"assignment tuple of length {len(key)} does not match {width} facts"
                    )
                mask = mask_from_bools(key)
            probs[mask] = probs.get(mask, 0.0) + probability
        return cls(fact_ids, probs, normalise=normalise)

    @classmethod
    def independent(
        cls, marginals: Mapping[str, float], fact_ids: Optional[Sequence[str]] = None
    ) -> "JointDistribution":
        """Build the product distribution from per-fact marginal probabilities.

        ``marginals`` maps each fact id to ``P(fact is true)``.  ``fact_ids``
        fixes the positional order; by default it is the iteration order of
        ``marginals``.
        """
        ids = tuple(fact_ids) if fact_ids is not None else tuple(marginals)
        for fact_id in ids:
            if fact_id not in marginals:
                raise InvalidDistributionError(f"missing marginal for fact {fact_id!r}")
            p = marginals[fact_id]
            if not 0.0 <= p <= 1.0:
                raise InvalidDistributionError(
                    f"marginal for {fact_id!r} must be in [0, 1], got {p}"
                )
        probs: Dict[int, float] = {0: 1.0}
        for position, fact_id in enumerate(ids):
            p_true = marginals[fact_id]
            updated: Dict[int, float] = {}
            for mask, mass in probs.items():
                if p_true > 0.0:
                    updated[mask | (1 << position)] = (
                        updated.get(mask | (1 << position), 0.0) + mass * p_true
                    )
                if p_true < 1.0:
                    updated[mask] = updated.get(mask, 0.0) + mass * (1.0 - p_true)
            probs = updated
        return cls(ids, probs)

    @classmethod
    def uniform(cls, fact_ids: Sequence[str]) -> "JointDistribution":
        """Build the uniform distribution over all ``2**n`` assignments."""
        n = len(fact_ids)
        if n > 20:
            raise InvalidDistributionError(
                "refusing to materialise a uniform distribution over more than 2^20 outputs"
            )
        mass = 1.0 / (1 << n)
        return cls(fact_ids, {mask: mass for mask in range(1 << n)})

    # -- basic accessors ----------------------------------------------------------

    @property
    def fact_ids(self) -> Tuple[str, ...]:
        """Ordered fact identifiers covered by this distribution."""
        return self._fact_ids

    @property
    def num_facts(self) -> int:
        """Number of facts (bits per assignment)."""
        return len(self._fact_ids)

    @property
    def support_size(self) -> int:
        """Number of assignments with non-zero probability (``|O|`` in the paper)."""
        return len(self._probs)

    def position(self, fact_id: str) -> int:
        """Return the bit position of ``fact_id``."""
        try:
            return self._positions[fact_id]
        except KeyError:
            raise InvalidFactError(f"unknown fact id {fact_id!r}") from None

    def positions(self, fact_ids: Sequence[str]) -> Tuple[int, ...]:
        """Return bit positions for several fact ids, preserving order."""
        return tuple(self.position(fact_id) for fact_id in fact_ids)

    def probability(self, assignment: Union[int, Assignment, Sequence[bool]]) -> float:
        """Return the probability of a full assignment (0.0 if outside the support)."""
        if isinstance(assignment, Assignment):
            mask = assignment.mask
        elif isinstance(assignment, int):
            mask = assignment
        else:
            mask = mask_from_bools(assignment)
        return self._probs.get(mask, 0.0)

    def items(self) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(mask, probability)`` pairs of the support."""
        return iter(self._probs.items())

    def support(self) -> Tuple[int, ...]:
        """Return the assignment masks in the support."""
        return tuple(self._probs)

    def as_dict(self) -> Dict[int, float]:
        """Return a copy of the underlying ``mask -> probability`` mapping."""
        return dict(self._probs)

    def assignments(self) -> Iterator[Tuple[Assignment, float]]:
        """Iterate over ``(Assignment, probability)`` pairs of the support."""
        width = self.num_facts
        for mask, probability in self._probs.items():
            yield Assignment(mask=mask, width=width), probability

    # -- contiguous-array fast path ------------------------------------------------

    def support_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the support as aligned ``(masks, probabilities)`` NumPy arrays.

        Masks are one ``int64`` column up to 63 facts and packed uint64 bit
        planes (:mod:`repro.core.bitplanes`) beyond; read either layout with
        :func:`~repro.core.entropy.bit_column` or
        :func:`~repro.core.entropy.project_columns`.  The arrays are built
        once and cached (the distribution is immutable); they are marked
        read-only because callers share the cache.
        """
        if self._arrays is None:
            count = len(self._probs)
            if self.num_facts <= 63:
                masks = np.fromiter(self._probs.keys(), dtype=np.int64, count=count)
            else:
                masks = pack_masks(self._probs.keys(), self.num_facts)
            probs = np.fromiter(self._probs.values(), dtype=np.float64, count=count)
            masks.setflags(write=False)
            probs.setflags(write=False)
            self._arrays = (masks, probs)
        return self._arrays

    def _use_arrays(self) -> bool:
        return len(self._probs) >= _VECTOR_MIN_SUPPORT

    # -- information-theoretic quantities ------------------------------------------

    def entropy(self) -> float:
        """Shannon entropy ``H(F)`` of the joint distribution, in bits."""
        if self._use_arrays():
            return entropy_bits(self.support_arrays()[1])
        return entropy_of(self._probs.values())

    def marginal(self, fact_id: str) -> float:
        """Marginal probability that ``fact_id`` is true: ``P(f_k) = Σ_{o ∈ O_k} P(o)``."""
        position = self.position(fact_id)
        if self._use_arrays():
            masks, probs = self.support_arrays()
            return float(probs[bit_column(masks, position).astype(bool)].sum())
        return sum(p for mask, p in self._probs.items() if mask >> position & 1)

    def marginals(self) -> Dict[str, float]:
        """Marginal truth probabilities of every fact."""
        if self._use_arrays():
            masks, probs = self.support_arrays()
            return {
                fact_id: float(probs[bit_column(masks, position).astype(bool)].sum())
                for position, fact_id in enumerate(self._fact_ids)
            }
        totals = [0.0] * self.num_facts
        for mask, probability in self._probs.items():
            for position in range(self.num_facts):
                if mask >> position & 1:
                    totals[position] += probability
        return dict(zip(self._fact_ids, totals))

    def marginalize(self, fact_ids: Sequence[str]) -> "JointDistribution":
        """Return the joint distribution restricted to ``fact_ids`` (marginalising the rest)."""
        if not fact_ids:
            raise InvalidDistributionError("cannot marginalise onto an empty fact set")
        positions = self.positions(fact_ids)
        if self._use_arrays() and len(positions) <= 24:
            masks, probs = self.support_arrays()
            projected = project_columns(masks, positions)
            grouped = np.bincount(projected, weights=probs, minlength=1 << len(positions))
            kept = np.nonzero(grouped)[0]
            sub_probs = dict(zip(kept.tolist(), grouped[kept].tolist()))
            return JointDistribution(fact_ids, sub_probs, normalise=True)
        probs_map: Dict[int, float] = {}
        for mask, probability in self._probs.items():
            sub = project_mask(mask, positions)
            probs_map[sub] = probs_map.get(sub, 0.0) + probability
        return JointDistribution(fact_ids, probs_map, normalise=True)

    def condition(self, evidence: Mapping[str, bool]) -> "JointDistribution":
        """Condition the distribution on known truth values of some facts.

        Raises :class:`InvalidDistributionError` if the evidence has zero
        probability under the current distribution.
        """
        if not evidence:
            return self.copy()
        checks = [(self.position(fact_id), value) for fact_id, value in evidence.items()]
        if self._use_arrays():
            masks, probs = self.support_arrays()
            keep = np.ones(masks.shape[0], dtype=bool)
            for position, value in checks:
                keep &= bit_column(masks, position).astype(bool) == value
            if not keep.any():
                raise InvalidDistributionError(
                    "conditioning evidence has zero probability under this distribution"
                )
            probs_map = dict(zip(_mask_keys(masks[keep]), probs[keep].tolist()))
            return JointDistribution(self._fact_ids, probs_map, normalise=True)
        probs_map = {}
        for mask, probability in self._probs.items():
            if all(bool(mask >> position & 1) == value for position, value in checks):
                probs_map[mask] = probability
        if not probs_map:
            raise InvalidDistributionError(
                "conditioning evidence has zero probability under this distribution"
            )
        return JointDistribution(self._fact_ids, probs_map, normalise=True)

    def reweight(self, weights: Mapping[int, float]) -> "JointDistribution":
        """Multiply each support point's mass by ``weights[mask]`` and renormalise.

        Missing masks get weight 1.0.  This is the primitive used by Bayesian
        answer merging (Equation 3).
        """
        probs = {
            mask: probability * weights.get(mask, 1.0)
            for mask, probability in self._probs.items()
        }
        return JointDistribution(self._fact_ids, probs, normalise=True)

    def reweight_array(self, weights: np.ndarray) -> "JointDistribution":
        """Vectorised :meth:`reweight` with weights aligned to :meth:`support_arrays`.

        ``weights[i]`` multiplies the mass of ``support_arrays()[0][i]``; the
        result is renormalised.  This is the fast Bayesian-update path used by
        answer merging.
        """
        masks, probs = self.support_arrays()
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != probs.shape:
            raise InvalidDistributionError(
                f"expected {probs.shape[0]} weights aligned to the support, "
                f"got {weights.shape}"
            )
        if np.isnan(weights).any() or (weights < 0.0).any():
            raise InvalidDistributionError("weights must be non-negative numbers")
        return self.from_support_arrays(self._fact_ids, masks, probs * weights)

    @classmethod
    def from_support_arrays(
        cls, fact_ids: Sequence[str], masks: np.ndarray, masses: np.ndarray
    ) -> "JointDistribution":
        """Build a distribution from aligned arrays of unique masks and masses.

        The trusted-input constructor behind :meth:`reweight_array`, the
        refinement sessions' posterior materialisation and the scale-corpus
        generator: it skips the per-item Python validation loop of
        ``__init__`` — callers must guarantee the masks are unique and in
        range — but keeps the zero-mass filtering and normalisation semantics
        (masses may be unnormalised; rows with exactly zero mass are
        dropped).  ``masks`` may be in either :meth:`support_arrays` layout;
        the filtered arrays, in the layout of the fact width, become the
        cached :meth:`support_arrays`.
        """
        fact_ids = tuple(fact_ids)
        masses = np.asarray(masses, dtype=np.float64)
        keep = masses > 0.0
        if not keep.any():
            raise InvalidDistributionError("distribution has no probability mass")
        if not keep.all():
            masks = masks[keep]
            masses = masses[keep]
        masses = masses / masses.sum()
        if len(fact_ids) > 63 and masks.ndim == 1:
            masks = pack_masks(masks, len(fact_ids))
        elif len(fact_ids) <= 63 and masks.ndim == 2:
            masks = masks[:, 0]
        dtype = np.uint64 if masks.ndim == 2 else np.int64
        # A read-only view, so the caller's own array keeps its flags.
        masks = np.ascontiguousarray(masks, dtype=dtype).view()
        masks.setflags(write=False)
        masses.setflags(write=False)
        instance = cls.__new__(cls)
        instance._fact_ids = fact_ids
        instance._positions = {
            fact_id: position for position, fact_id in enumerate(fact_ids)
        }
        instance._probs = dict(zip(_mask_keys(masks), masses.tolist()))
        instance._arrays = (masks, masses)
        return instance

    # -- decisions -----------------------------------------------------------------

    def map_assignment(self) -> Assignment:
        """Return the maximum-a-posteriori assignment."""
        best_mask = max(self._probs, key=lambda mask: self._probs[mask])
        return Assignment(mask=best_mask, width=self.num_facts)

    def predicted_labels(self, threshold: float = 0.5) -> Dict[str, bool]:
        """Threshold the per-fact marginals into boolean labels.

        A fact is predicted true when its marginal probability is strictly
        greater than ``threshold`` (ties go to false, matching the
        "needs positive evidence" convention used in the evaluation).
        """
        return {
            fact_id: probability > threshold
            for fact_id, probability in self.marginals().items()
        }

    # -- utilities -----------------------------------------------------------------

    def copy(self) -> "JointDistribution":
        """Return an independent copy of this distribution."""
        return JointDistribution(self._fact_ids, dict(self._probs), normalise=True)

    def allclose(self, other: "JointDistribution", tolerance: float = 1e-9) -> bool:
        """Return whether two distributions agree on fact order and probabilities."""
        if self._fact_ids != other._fact_ids:
            return False
        masks = set(self._probs) | set(other._probs)
        return all(
            abs(self._probs.get(mask, 0.0) - other._probs.get(mask, 0.0)) <= tolerance
            for mask in masks
        )

    def __repr__(self) -> str:
        return (
            f"JointDistribution(facts={len(self._fact_ids)}, "
            f"support={len(self._probs)}, entropy={self.entropy():.4f})"
        )
