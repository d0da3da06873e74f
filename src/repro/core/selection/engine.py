"""The vectorized, incremental entropy engine behind every selector.

One greedy iteration of Algorithm 1 evaluates ``H(T ∪ {f})`` for every
remaining candidate ``f``.  The engine makes that whole scan cheap by
combining four ideas:

1. **Vectorized preprocessing** — the output support is held once as
   contiguous NumPy arrays (masks, probabilities, and one 0/1 column per
   candidate fact), so no scan ever touches Python dicts.

2. **Incremental partition refinement** (Algorithm 2 of the paper) — the
   projection of every output onto the already-selected task set is cached in
   the :class:`SelectionState` and only *extended by one bit* per candidate,
   instead of being recomputed from the raw masks.

3. **Incremental channel reuse** — the selected set's noise-convolved answer
   distribution ``B = Chan(grouped(T))`` is cached in the state.  For a
   candidate ``f``, only the mass where ``f`` is true needs a fresh
   convolution: with ``B₁ = Chan(grouped(T, f=true))`` linearity gives
   ``B₀ = B − B₁``, and the answer distribution of ``T ∪ {f}`` is the pair
   ``(acc_f·B₁ + (1−acc_f)·B₀, (1−acc_f)·B₁ + acc_f·B₀)`` interleaved — one
   ``O(w·2^w)`` transform per candidate instead of rebuilding everything.

4. **Batched scans** — :meth:`EntropyEngine.scan` scores a whole block of
   candidates with a fixed number of NumPy calls: one grouping step for the
   block, one row-wise channel transform over every candidate's table, the
   candidate channels broadcast over the block, and one entropy reduction
   per contiguous row.  The grouping depends on the support size alone.  An
   ordinary support runs one offset ``bincount`` over the stacked weighted
   bit columns, O(rows × candidates).  A support of at least
   ``cells · 2^width · 2^8 · 4`` rows is grouped through *slice histograms*
   (the "Four Russians" table trick): one weighted ``bincount`` per 8-bit
   mask slice the candidates touch, keyed by ``(combined << 8) | slice``,
   after which a candidate's table is the row sum of the bins where its bit
   is set, O(rows × ⌈n/8⌉).  Because every reduction stays inside one
   candidate's row, a candidate's entropies do not depend on which other
   candidates share its block — a pool worker scoring a slice of the
   candidates returns the very floats the in-process scan would.
   :meth:`EntropyEngine.extend` commits the winner from the tables of the
   scan that ranked it instead of convolving it a second time.

The channels need not be uniform: the engine accepts any
:class:`~repro.core.crowd.ChannelModel`, keeping one ``(acc_i, 1 − acc_i)``
pair per selected bit (cached in :attr:`SelectionState.bit_accuracies`).
Uniform models take the original shared-BSC code path, which the
heterogeneous kernels reproduce bit-for-bit when accuracies are equal.

The same machinery serves query-based selection (Section IV): the support is
additionally partitioned into *facts-of-interest cells* (distinct projections
onto ``I``), the cached table keeps one row per cell, and both ``H(T)`` and
``H(I, T)`` fall out of the same convolved table.

The engine is also the unit of cross-round reuse: :meth:`reweight` applies a
Bayesian update to the cached probability vector in place (the support masks,
bit columns and interest cells never change), which is what lets a
:class:`~repro.core.selection.session.RefinementSession` amortise one engine
over an entire multi-round run instead of rebuilding it after every merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.crowd import ChannelModel
from repro.core.distribution import JointDistribution
from repro.core.entropy import (
    bit_column,
    bsc_transform,
    bsc_transform_rows,
    channel_transform,
    channel_transform_rows,
    entropy_bits,
    project_columns,
)
from repro.core.utility import crowd_entropy
from repro.exceptions import SelectionError

#: Hard cap on the number of channeled table entries (cells × answer vectors).
_MAX_TABLE_ENTRIES = 1 << 26

#: Largest task set a single evaluation may enumerate answer vectors for —
#: kept equal to the cap in :mod:`repro.core.crowd` so the engine and the
#: crowd model refuse the same workloads.
_MAX_TASK_BITS = 24

#: Supports larger than this do not cache the per-fact ``probabilities × bits``
#: products: on a 2^20-row support each cached product costs 8 MB, so a
#: hundreds-of-candidates scan would hold gigabytes for a multiply that takes
#: ~1 ms to redo.  The recomputed product is the identical float array, so
#: results are unchanged either way.
_WEIGHTED_CACHE_MAX_SUPPORT = 1 << 18

#: Cap on one scan block's working set, in array entries: candidates × the
#: larger of the support size (the stacked bincount keys and weights) and the
#: state table size ``cells × 2^width`` (the channel and answer tables).  A
#: block always holds at least one candidate.  On the histogram path the cap
#: bounds one slice's keys plus its candidates' ``cells × 2^width × 2^8``
#: bin selections instead.  The same cap bounds the answer tables a scan
#: keeps for :meth:`extend`.
_SCAN_BLOCK_MAX_ENTRIES = 1 << 20

#: Bits per support-mask slice of the histogram scan.  Slices are cached as
#: ``uint8`` columns, and 8 divides 64, so no slice straddles a plane word.
_SLICE_BITS = 8

#: The histogram scan groups a state once the support holds at least this
#: many rows per bin of one slice histogram (``cells · 2^width · 2^8``
#: bins).  The rule reads the engine and the state only, never the
#: candidates, so the path — and a candidate's floats — cannot depend on
#: which candidates share a block.  Smaller supports are bound by NumPy
#: dispatch, not by rows, and keep the offset ``bincount``.
_HISTOGRAM_MIN_FILL = 4

#: ``_SLICE_BIT_TABLE[b, v]`` is bit ``b`` of slice value ``v``, as 0.0 or 1.0.
_SLICE_BIT_TABLE = (
    (np.arange(1 << _SLICE_BITS) >> np.arange(_SLICE_BITS)[:, np.newaxis]) & 1
).astype(np.float64)


@dataclass(frozen=True)
class SelectionState:
    """Cached per-round state of an incrementally grown task set.

    Attributes
    ----------
    task_ids:
        Selected fact ids, in selection order (most recent last).
    width:
        Number of selected tasks (bits per answer vector).
    entropy:
        Answer-set entropy ``H(T)`` of the selected set.
    joint_entropy:
        Joint entropy ``H(I, T)`` when the engine partitions by facts of
        interest; equals ``entropy`` for engines without interest cells
        (one cell holding the whole support).
    projection:
        Per-support-row projection onto the selected tasks; the most recently
        selected task occupies the least significant bit.
    combined:
        Per-support-row bincount key ``(cell << width) | projection``; the
        very ``projection`` array for engines without interest cells.  Both
        arrays are read-only, since states and engines share them.
    table:
        Noise-convolved mass table of shape ``(num_cells, 2**width)``:
        ``table[c, a]`` is the joint probability of interest cell ``c`` and
        answer vector ``a``.
    bit_accuracies:
        Per-bit channel accuracies aligned with ``projection`` (least
        significant bit first, i.e. reverse selection order); ``None`` for
        uniform channel models, whose single accuracy lives on the engine.
    """

    task_ids: Tuple[str, ...]
    width: int
    entropy: float
    joint_entropy: float
    projection: np.ndarray
    combined: np.ndarray
    table: np.ndarray
    bit_accuracies: Optional[np.ndarray] = None


class CandidateScan:
    """The scores of one :meth:`EntropyEngine.scan` against one state.

    ``entropies[i]`` is ``H(T ∪ {fact_ids[i]})`` and ``joint_entropies[i]``
    is ``H(I, T ∪ {fact_ids[i]})`` (equal to ``entropies[i]`` for engines
    without interest cells), both plain floats in candidate order.  The scan
    also keeps the candidates' answer tables — as long as they fit
    :data:`_SCAN_BLOCK_MAX_ENTRIES` — so :meth:`EntropyEngine.extend` can
    commit whichever candidate wins without convolving it again.
    """

    __slots__ = ("state", "fact_ids", "entropies", "joint_entropies", "_blocks")

    def __init__(
        self,
        state: SelectionState,
        fact_ids: Tuple[str, ...],
        entropies: List[float],
        joint_entropies: List[float],
        blocks: List[Tuple[Sequence[int], np.ndarray, np.ndarray]],
    ):
        self.state = state
        self.fact_ids = fact_ids
        self.entropies = entropies
        self.joint_entropies = joint_entropies
        #: ``(candidate indices, answer_false, answer_true)`` per kept block:
        #: row ``r`` of the ``(block, cells, 2^width)`` tables belongs to
        #: candidate ``indices[r]`` (a ``range`` for an in-process block; any
        #: order for a block a pool worker scored).
        self._blocks = blocks

    @classmethod
    def _gather(
        cls,
        state: SelectionState,
        fact_ids: Tuple[str, ...],
        parts: Sequence[
            Tuple[Sequence[int], List[float], List[float], List[tuple]]
        ],
    ) -> "CandidateScan":
        """One scan of ``fact_ids`` from the scans of disjoint sub-lists.

        Each part is ``(indices, entropies, joint_entropies, blocks)`` of one
        sub-scan, whose ``i``-th candidate is ``fact_ids[indices[i]]``.
        Tables are kept while they fit :data:`_SCAN_BLOCK_MAX_ENTRIES` in
        total, as :meth:`EntropyEngine.scan` keeps its own.
        """
        entropies = [0.0] * len(fact_ids)
        joint_entropies = [0.0] * len(fact_ids)
        blocks: List[Tuple[Sequence[int], np.ndarray, np.ndarray]] = []
        kept = 0
        for indices, part_entropies, part_joints, part_blocks in parts:
            for index, entropy, joint in zip(indices, part_entropies, part_joints):
                entropies[index] = entropy
                joint_entropies[index] = joint
            for rows, answer_false, answer_true in part_blocks:
                kept += 2 * answer_false.size
                if kept <= _SCAN_BLOCK_MAX_ENTRIES:
                    blocks.append(
                        ([indices[row] for row in rows], answer_false, answer_true)
                    )
        return cls(state, fact_ids, entropies, joint_entropies, blocks)

    def extension(
        self, fact_id: str
    ) -> Optional[Tuple[np.ndarray, np.ndarray, float, float]]:
        """``(A_false, A_true, H(T ∪ {f}), H(I, T ∪ {f}))`` of a scanned candidate.

        ``None`` when the scan did not score that candidate, or did not keep
        its tables (an oversized scan keeps only the blocks that fit).
        """
        try:
            index = self.fact_ids.index(fact_id)
        except ValueError:
            return None
        for rows, answer_false, answer_true in self._blocks:
            if index in rows:
                row = rows.index(index)
                return (
                    answer_false[row],
                    answer_true[row],
                    self.entropies[index],
                    self.joint_entropies[index],
                )
        return None


def _row_entropies(masses: np.ndarray) -> np.ndarray:
    """Shannon entropy (base 2) of every row along the last axis.

    Non-positive entries contribute nothing, as in
    :func:`~repro.core.entropy.entropy_bits`.  Each row is reduced on its
    own, so a row's entropy is the same float whatever rows share the array;
    for a row without zeros it is exactly ``entropy_bits`` of that row (same
    elementwise terms, same pairwise summation over the same length).
    """
    positive = np.where(masses > 0.0, masses, 1.0)
    return -(positive * np.log2(positive)).sum(axis=-1)


class EntropyEngine:
    """Vectorized evaluator of answer-set entropies over one distribution.

    Parameters
    ----------
    distribution:
        The joint output distribution whose support backs all evaluations.
    crowd:
        Channel model defining the per-task noise channels (the paper's
        uniform :class:`~repro.core.crowd.CrowdModel` or any heterogeneous
        :class:`~repro.core.crowd.ChannelModel`).
    interest_ids:
        Optional facts of interest.  When given, states additionally track
        ``H(I, T)`` so query-based utilities ``Q(I|T) = H(T) − H(I, T)`` come
        from the same cached table.
    """

    #: Whether this engine is an :meth:`interest_view` snapshot (views share
    #: the parent's probability vector and therefore refuse to reweight).
    _is_view = False

    def __init__(
        self,
        distribution: JointDistribution,
        crowd: ChannelModel,
        interest_ids: Optional[Sequence[str]] = None,
    ):
        self._distribution = distribution
        self._crowd = crowd
        self._uniform = crowd.uniform_accuracy
        self._masks, self._probabilities = distribution.support_arrays()
        self._cell_index, self._num_cells = self._build_interest_cells(interest_ids)
        self._bits: Dict[str, np.ndarray] = {}
        #: ``uint8`` mask slices of the histogram scan, by slice index.
        self._slices: Dict[int, np.ndarray] = {}
        self._weighted_bits: Dict[str, np.ndarray] = {}
        self._accuracy: Dict[str, float] = {}
        self._noise: Dict[str, float] = {}
        #: Number of entropy evaluations served: one per candidate a
        #: :meth:`scan` scores (committing with :meth:`extend` adds none).
        self.evaluations = 0
        #: Number of Bayesian reweights applied (rounds served by this engine).
        self.reweights = 0
        #: Number of channel-model swaps applied (:meth:`set_channel` calls).
        #: Together with :attr:`reweights` this is the engine's *generation*:
        #: persistent pool workers compare both counters against the parent's
        #: to decide whether their inherited state needs a re-sync.
        self.channel_swaps = 0

    def _build_interest_cells(
        self, interest_ids: Optional[Sequence[str]]
    ) -> "Tuple[np.ndarray, int]":
        """Dense cell index of the support's projections onto ``interest_ids``.

        One cell per distinct interest projection present in the support
        (a single cell holding everything when there is no interest set);
        shared by the constructor and :meth:`interest_view`.
        """
        if interest_ids:
            interest_positions = self._distribution.positions(interest_ids)
            interest_sub = project_columns(self._masks, interest_positions)
            _, cell_index = np.unique(interest_sub, return_inverse=True)
            cell_index = cell_index.astype(np.int64)
            num_cells = int(cell_index.max()) + 1
        else:
            cell_index, num_cells = np.zeros(self._masks.shape[0], dtype=np.int64), 1
        # Selection states share it as their empty-set key.
        cell_index.setflags(write=False)
        return cell_index, num_cells

    @property
    def distribution(self) -> JointDistribution:
        """The distribution the engine was *built* on.

        After :meth:`reweight` the cached probabilities diverge from this
        object; sessions materialise the current posterior on demand.
        """
        return self._distribution

    @property
    def crowd(self) -> ChannelModel:
        return self._crowd

    @property
    def uniform_accuracy(self) -> Optional[float]:
        """Shared channel accuracy, or ``None`` for heterogeneous models."""
        return self._uniform

    @property
    def support_masks(self) -> np.ndarray:
        """Support bitmasks, aligned with :attr:`probabilities` (never mutated).

        An ``int64`` column up to 63 facts; a packed ``(rows, words)`` uint64
        bit-plane array beyond (``shape[0]`` is the support size either way).
        """
        return self._masks

    @property
    def probabilities(self) -> np.ndarray:
        """The current (possibly reweighted) probability vector over the support."""
        return self._probabilities

    def bits(self, fact_id: str) -> np.ndarray:
        """0/1 truth column of ``fact_id`` over the support (cached).

        Stored as ``int8`` — one byte per support row — so a scale corpus
        (2^20 rows, hundreds of candidate facts) keeps its whole column cache
        in tens of megabytes; every consumer (``|`` into an ``int64``
        projection, ``×`` into a float64 product, a session merge's
        likelihood gather) promotes losslessly.  The column is read-only:
        it is shared by every consumer and every interest view.
        """
        column = self._bits.get(fact_id)
        if column is None:
            position = self._distribution.position(fact_id)
            # bit_column reads either mask layout: int64 column or packed
            # uint64 planes.
            column = bit_column(self._masks, position)
            column.setflags(write=False)
            self._bits[fact_id] = column
        return column

    def weighted_bits(self, fact_id: str) -> np.ndarray:
        """Support probabilities masked to rows where ``fact_id`` is true.

        Cached per fact on ordinarily sized supports; past
        :data:`_WEIGHTED_CACHE_MAX_SUPPORT` rows the product is recomputed on
        demand (same floats, a fraction of the memory).
        """
        weighted = self._weighted_bits.get(fact_id)
        if weighted is None:
            weighted = self._probabilities * self.bits(fact_id)
            if self._probabilities.shape[0] <= _WEIGHTED_CACHE_MAX_SUPPORT:
                self._weighted_bits[fact_id] = weighted
        return weighted

    def _mask_slice(self, index: int) -> np.ndarray:
        """Mask bits ``[8·index, 8·index + 8)`` of every support row, as ``uint8``.

        Cached like :meth:`bits`: the slices are structural, so they survive
        :meth:`reweight`, :meth:`load_probabilities` and :meth:`set_channel`.
        """
        column = self._slices.get(index)
        if column is None:
            low = index * _SLICE_BITS
            if self._masks.ndim == 1:
                shifted = self._masks >> low
            else:
                shifted = self._masks[:, low // 64] >> np.uint64(low % 64)
            column = (shifted & 0xFF).astype(np.uint8)
            self._slices[index] = column
        return column

    def accuracy_for(self, fact_id: str) -> float:
        """Channel accuracy of ``fact_id`` (cached lookup into the model)."""
        accuracy = self._accuracy.get(fact_id)
        if accuracy is None:
            accuracy = self._crowd.accuracy_for(fact_id)
            self._accuracy[fact_id] = accuracy
        return accuracy

    def noise_entropy(self, fact_id: str) -> float:
        """Per-task crowd entropy ``H(Crowd_f)`` of ``fact_id``'s channel (cached)."""
        noise = self._noise.get(fact_id)
        if noise is None:
            noise = crowd_entropy(self.accuracy_for(fact_id))
            self._noise[fact_id] = noise
        return noise

    # -- cross-round reuse ----------------------------------------------------------

    def set_channel(self, crowd: ChannelModel) -> None:
        """Swap the channel model in place, keeping every structural cache.

        Used by adaptive re-calibration: as rounds accumulate, a session may
        re-estimate per-fact accuracies and hand the engine the updated model.
        Support masks, bit columns and interest cells are untouched; only the
        per-fact accuracy / noise-entropy caches reset.  Existing interest
        views are snapshots of the *old* channel (they copy the accuracy
        caches at creation) — discard and rebuild them after a swap, as
        sessions do on every merge.
        """
        self._crowd = crowd
        self._uniform = crowd.uniform_accuracy
        self._accuracy.clear()
        self._noise.clear()
        self.channel_swaps += 1

    def interest_view(self, interest_ids: Sequence[str]) -> "EntropyEngine":
        """A facts-of-interest view sharing this engine's cached arrays.

        Batched multi-query selection scores many queries' task sets against
        one entity: every query needs its own interest-cell partition, but
        the expensive per-fact state — support masks, probability vector and
        the cached 0/1 bit columns — is interest-independent.  The returned
        engine *shares* those by reference (the bit-column cache is the same
        dict object, so a column materialised for one query is warm for
        every other) and only computes the view's own cell index.

        The view is a snapshot of the current probabilities: it must not be
        reweighted (sessions rebuild their views after each merge), and its
        evaluation counters are independent of the parent's.
        """
        view = EntropyEngine.__new__(EntropyEngine)
        view._distribution = self._distribution
        view._crowd = self._crowd
        view._uniform = self._uniform
        view._masks = self._masks
        view._probabilities = self._probabilities
        # The bit columns and mask slices are channel- and
        # probability-independent, so their caches are shared as the same
        # dict objects: a column materialised for one query is warm for
        # every other (and for the parent).
        view._bits = self._bits
        view._slices = self._slices
        # Everything that depends on the snapshot — the probability products,
        # the channel accuracies — is seeded from the parent but kept
        # private, so a later reweight or channel swap on the parent can
        # never be poisoned by a stale view (nor vice versa).
        view._accuracy = dict(self._accuracy)
        view._noise = dict(self._noise)
        view._weighted_bits = dict(self._weighted_bits)
        view._cell_index, view._num_cells = view._build_interest_cells(interest_ids)
        view._is_view = True
        view.evaluations = 0
        view.reweights = 0
        view.channel_swaps = 0
        return view

    def reweight(self, weights: np.ndarray) -> None:
        """Apply a Bayesian update to the cached probabilities, in place.

        ``weights[i]`` multiplies the mass of support row ``i`` (the same
        alignment contract as :meth:`JointDistribution.reweight_array`); the
        result is renormalised.  Masks, bit columns and interest cells are
        untouched, so all structural caches stay valid — only the per-fact
        ``weighted_bits`` products are invalidated.  Rows whose mass reaches
        exactly zero are kept (every consumer ignores non-positive mass),
        preserving row alignment for later reweights.  ``weights`` is only
        read; a reweight that raises leaves the engine as it was.
        """
        self._reweight_owned(np.array(weights, dtype=np.float64))

    def _reweight_owned(self, weights: np.ndarray) -> None:
        """:meth:`reweight` by a fresh float64 column the caller gives up.

        The product is taken in ``weights`` itself (``w·p`` is ``p·w`` bit
        for bit), which saves a session merge one support-sized array.
        """
        if self._is_view:
            raise SelectionError(
                "interest views share their parent's probability vector and "
                "cannot be reweighted; reweight the owning engine instead"
            )
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self._probabilities.shape:
            raise SelectionError(
                f"expected {self._probabilities.shape[0]} weights aligned to the "
                f"support, got {weights.shape}"
            )
        # One pass refuses NaN (it compares false) and negative weights alike.
        if not (weights >= 0.0).all():
            raise SelectionError("reweight weights must be non-negative numbers")
        masses = np.multiply(weights, self._probabilities, out=weights)
        total = masses.sum()
        if total <= 0.0:
            raise SelectionError("reweighting removed all probability mass")
        masses /= total
        self._probabilities = masses
        self._weighted_bits.clear()
        self.reweights += 1

    def load_probabilities(self, probabilities: np.ndarray, reweights: int) -> None:
        """Replace the probability vector verbatim with a peer's snapshot.

        The persistent-pool sync primitive: a fork-inherited worker engine
        catches up with its parent by copying the parent's already-normalised
        posterior byte for byte (no renormalisation, so every later float
        operation is bit-identical to the parent's) and adopting the parent's
        :attr:`reweights` generation.  Structural caches (masks, bit columns,
        interest cells) stay valid exactly as they do across
        :meth:`reweight`; only the ``weighted_bits`` products are dropped.
        """
        if self._is_view:
            raise SelectionError(
                "interest views share their parent's probability vector and "
                "cannot load snapshots; sync the owning engine instead"
            )
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if probabilities.shape != self._probabilities.shape:
            raise SelectionError(
                f"expected a snapshot of {self._probabilities.shape[0]} "
                f"probabilities aligned to the support, got {probabilities.shape}"
            )
        self._probabilities = probabilities.copy()
        self._weighted_bits.clear()
        self.reweights = reweights

    # -- incremental path -----------------------------------------------------------

    def initial_state(self) -> SelectionState:
        """State of the empty task set (``H(T) = 0``, ``H(I, T) = H(I)``)."""
        cell_mass = np.bincount(
            self._cell_index, weights=self._probabilities, minlength=self._num_cells
        )
        projection, combined = self._refine(self._empty_projection(), 0, ())
        return SelectionState(
            task_ids=(),
            width=0,
            entropy=0.0,
            joint_entropy=entropy_bits(cell_mass),
            projection=projection,
            combined=combined,
            table=cell_mass.reshape(self._num_cells, 1),
            bit_accuracies=None if self._uniform is not None else np.empty(0),
        )

    def _empty_projection(self) -> np.ndarray:
        """The projection of the empty task set: zero on every support row."""
        return np.zeros(self._masks.shape[0], dtype=np.int64)

    def _refine(
        self, projection: np.ndarray, width: int, fact_ids: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The partition of ``width`` task bits refined by ``fact_ids``.

        Each fact in turn takes the least significant answer bit of
        ``projection``.  Returns ``(projection, combined)``, both read-only:
        ``combined`` keys a row by ``(cell << width) | projection``, which
        with one cell is the projection itself (cell 0 shifts to 0).
        """
        for fact_id in fact_ids:
            projection = (projection << 1) | self.bits(fact_id)
        projection.setflags(write=False)
        width += len(fact_ids)
        if self._num_cells == 1:
            return projection, projection
        if width == 0:
            return projection, self._cell_index
        combined = (self._cell_index << width) | projection
        combined.setflags(write=False)
        return projection, combined

    def _uses_histograms(self, state: SelectionState) -> bool:
        """Whether scans of ``state`` group through slice histograms."""
        bins = (self._num_cells << state.width) << _SLICE_BITS
        return self._masks.shape[0] >= _HISTOGRAM_MIN_FILL * bins

    def _block_size(self, state: SelectionState, count: int) -> int:
        """Candidates per scan block under :data:`_SCAN_BLOCK_MAX_ENTRIES`.

        A histogram scan is one block: its slice histograms serve every
        candidate, and its tables hold ``cells · 2^width`` entries each.
        """
        if self._uses_histograms(state):
            return max(1, count)
        footprint = max(self._masks.shape[0], self._num_cells << state.width)
        return max(1, _SCAN_BLOCK_MAX_ENTRIES // footprint)

    def _histogram_true(
        self, state: SelectionState, fact_ids: Sequence[str]
    ) -> np.ndarray:
        """``(block, cells · 2^width)`` true mass of each candidate, by slice.

        One weighted ``bincount`` keyed by ``(combined << 8) | slice`` per
        mask slice the candidates touch; a candidate's table is the row sum
        of the bins where its bit is set.  The 0/1 product is exact and each
        ``(candidate, key)`` row sums its own contiguous bins, so a
        candidate's floats do not depend on the rest of the block.
        """
        stride = self._num_cells << state.width
        bins = stride << _SLICE_BITS
        positions = np.array(self._distribution.positions(fact_ids), dtype=np.int64)
        slices = positions // _SLICE_BITS
        selectors = _SLICE_BIT_TABLE[positions % _SLICE_BITS]
        # Candidates per product: one slice's keys plus its products stay
        # under the block cap (at least one candidate at a time).
        chunk = max(1, (_SCAN_BLOCK_MAX_ENTRIES - self._masks.shape[0]) // bins)
        shifted = state.combined << _SLICE_BITS
        grouped = np.empty((len(fact_ids), stride))
        for index in sorted(set(slices.tolist())):
            histogram = np.bincount(
                shifted | self._mask_slice(index),
                weights=self._probabilities,
                minlength=bins,
            ).reshape(stride, 1 << _SLICE_BITS)
            members = np.flatnonzero(slices == index)
            for start in range(0, members.size, chunk):
                rows = members[start:start + chunk]
                grouped[rows] = (
                    histogram[np.newaxis] * selectors[rows][:, np.newaxis, :]
                ).sum(axis=-1)
        return grouped

    def _score_block(
        self, state: SelectionState, fact_ids: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Entropies and answer tables of ``T ∪ {f}`` for a block of candidates.

        Returns ``(H(T ∪ {f}), H(I, T ∪ {f}), A_false, A_true)``: two
        ``(block,)`` entropy arrays and two ``(block, cells, 2^width)``
        tables.  ``A_true[i, c, a]`` is the joint mass of cell ``c``,
        selected-answer vector ``a`` and a "true" answer for candidate ``i``;
        ``A_false`` likewise for a "false" answer.  Every step is elementwise
        or reduces within one candidate's rows, so each candidate's floats are
        independent of the rest of the block.
        """
        width = state.width
        count = len(fact_ids)
        stride = self._num_cells << width
        if self._uses_histograms(state):
            grouped_true = self._histogram_true(state, fact_ids)
        else:
            if count == 1:
                keys = state.combined
                weights = self.weighted_bits(fact_ids[0])
            else:
                # Candidate i's rows land in bins [i·stride, (i+1)·stride), so
                # one bincount groups the whole block, each bin still summed
                # in support order.
                offsets = np.arange(0, count * stride, stride, dtype=np.int64)
                keys = np.add.outer(offsets, state.combined).ravel()
                weights = np.concatenate(
                    [self.weighted_bits(fact_id) for fact_id in fact_ids]
                )
            grouped_true = np.bincount(keys, weights=weights, minlength=count * stride)
        grouped_true = grouped_true.reshape(count * self._num_cells, 1 << width)
        if self._uniform is not None:
            channeled_true = bsc_transform_rows(grouped_true, width, self._uniform)
            accuracy = self._uniform
        else:
            channeled_true = channel_transform_rows(grouped_true, state.bit_accuracies)
            accuracy = np.array(
                [self.accuracy_for(fact_id) for fact_id in fact_ids]
            ).reshape(count, 1, 1)
        channeled_true = channeled_true.reshape(count, self._num_cells, 1 << width)
        # Linearity of the channel: Chan(grouped_false) = Chan(grouped) − Chan(grouped_true).
        # The subtraction can leave ~1e-16 negative residue; clamp it so the
        # entropy reduction treats it as the zero it mathematically is.
        channeled_false = state.table - channeled_true
        np.maximum(channeled_false, 0.0, out=channeled_false)
        error = 1.0 - accuracy
        answers = np.empty((2,) + channeled_true.shape)
        np.add(error * channeled_true, accuracy * channeled_false, out=answers[0])
        np.add(accuracy * channeled_true, error * channeled_false, out=answers[1])
        per_answer = _row_entropies(answers.reshape(2, count, stride))
        joint_entropies = per_answer[0] + per_answer[1]
        if self._num_cells == 1:
            return joint_entropies, joint_entropies, answers[0], answers[1]
        per_answer = _row_entropies(answers.sum(axis=2))
        return per_answer[0] + per_answer[1], joint_entropies, answers[0], answers[1]

    def scan(self, state: SelectionState, fact_ids: Sequence[str]) -> CandidateScan:
        """Score ``H(T ∪ {f})`` and ``H(I, T ∪ {f})`` for every candidate ``f``.

        The candidates are scored in blocks of a fixed number of NumPy calls
        each (see :meth:`_score_block`), blocks sized under
        :data:`_SCAN_BLOCK_MAX_ENTRIES`, or in one block when the support is
        large enough for slice histograms.  The state is not mutated.  Adds
        one to :attr:`evaluations` per candidate.
        """
        fact_ids = tuple(fact_ids)
        self.evaluations += len(fact_ids)
        entropies: List[float] = []
        joint_entropies: List[float] = []
        blocks: List[Tuple[Sequence[int], np.ndarray, np.ndarray]] = []
        block = self._block_size(state, len(fact_ids))
        kept = 0
        for start in range(0, len(fact_ids), block):
            task, joint, answer_false, answer_true = self._score_block(
                state, fact_ids[start:start + block]
            )
            entropies.extend(task.tolist())
            joint_entropies.extend(joint.tolist())
            kept += 2 * answer_false.size
            if kept <= _SCAN_BLOCK_MAX_ENTRIES:
                rows = range(start, start + len(task))
                blocks.append((rows, answer_false, answer_true))
        return CandidateScan(state, fact_ids, entropies, joint_entropies, blocks)

    def extend(
        self,
        state: SelectionState,
        fact_id: str,
        scan: Optional[CandidateScan] = None,
    ) -> SelectionState:
        """Commit ``fact_id`` into the state, refining the cached partition.

        ``scan`` — the :meth:`scan` of ``state`` that ranked ``fact_id`` —
        supplies the new answer tables and entropies; without it (or when the
        scan kept no tables for ``fact_id``) the candidate is scored as a
        block of one, which yields the identical floats.  Either way the
        commit adds nothing to :attr:`evaluations`.
        """
        width = state.width + 1
        if width > _MAX_TASK_BITS or (self._num_cells << width) > _MAX_TABLE_ENTRIES:
            raise SelectionError(
                f"selection state table would exceed {_MAX_TABLE_ENTRIES} entries "
                f"or {_MAX_TASK_BITS} tasks ({self._num_cells} cells x 2^{width} "
                "answer vectors)"
            )
        scored = None
        if scan is not None:
            if scan.state is not state:
                raise SelectionError(
                    "extend() was handed a scan of a different selection state"
                )
            scored = scan.extension(fact_id)
        if scored is None:
            task, joint, answer_false, answer_true = self._score_block(state, (fact_id,))
            scored = (answer_false[0], answer_true[0], float(task[0]), float(joint[0]))
        answer_false, answer_true, task_entropy, joint_entropy = scored
        table = np.empty((self._num_cells, 1 << width))
        # The new task takes the least significant answer bit, matching the
        # projection refinement below.
        table[:, 0::2] = answer_false
        table[:, 1::2] = answer_true
        projection, combined = self._refine(state.projection, state.width, (fact_id,))
        if state.bit_accuracies is None:
            bit_accuracies = None
        else:
            bit_accuracies = np.concatenate(
                ([self.accuracy_for(fact_id)], state.bit_accuracies)
            )
        return SelectionState(
            task_ids=state.task_ids + (fact_id,),
            width=width,
            entropy=task_entropy,
            joint_entropy=joint_entropy,
            projection=projection,
            combined=combined,
            table=table,
            bit_accuracies=bit_accuracies,
        )

    def _refresh_state(
        self,
        state: Optional[SelectionState],
        task_ids: Tuple[str, ...],
        table: np.ndarray,
        entropy: float,
        joint_entropy: float,
        bit_accuracies: Optional[np.ndarray],
    ) -> SelectionState:
        """The state of ``task_ids`` built from a peer engine's scores.

        A pool worker's catch-up with its parent: ``table``, the entropies
        and ``bit_accuracies`` are the parent state's, adopted verbatim, so
        only the partition is refined here — one bit per task past
        ``state``'s prefix, or from the empty set when ``state`` is ``None``
        or not a prefix of ``task_ids``.  A ``state`` already at
        ``task_ids`` is returned as it is (the same engine generation scores
        the same tasks to the same floats).  No candidate is scored.
        """
        if state is not None and state.task_ids == task_ids:
            return state
        if state is None or state.task_ids != task_ids[: state.width]:
            projection, done = self._empty_projection(), 0
        else:
            projection, done = state.projection, state.width
        projection, combined = self._refine(projection, done, task_ids[done:])
        return SelectionState(
            task_ids=task_ids,
            width=len(task_ids),
            entropy=entropy,
            joint_entropy=joint_entropy,
            projection=projection,
            combined=combined,
            table=table,
            bit_accuracies=bit_accuracies,
        )

    # -- from-scratch path ----------------------------------------------------------

    def task_entropy(self, task_ids: Sequence[str]) -> float:
        """``H(T)`` of an arbitrary task set, computed in one shot.

        Used by the brute-force (OPT) selector, where task sets are not grown
        incrementally.
        """
        positions = self._distribution.positions(task_ids)
        k = len(positions)
        if k > _MAX_TASK_BITS:
            raise SelectionError(
                f"refusing to enumerate 2^{k} answer vectors in one evaluation "
                f"(task sets are limited to {_MAX_TASK_BITS} facts)"
            )
        self.evaluations += 1
        projected = project_columns(self._masks, positions)
        grouped = np.bincount(projected, weights=self._probabilities, minlength=1 << k)
        if self._uniform is not None:
            return entropy_bits(bsc_transform(grouped, k, self._uniform))
        return entropy_bits(
            channel_transform(grouped, self._crowd.accuracies(task_ids))
        )
