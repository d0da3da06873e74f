"""The object-dtype mask engine: the wide-fact oracle for the bit planes.

Past 63 facts the library holds a support's masks as packed uint64 bit
planes.  The layout they replaced, an object-dtype column of Python ints,
lives on here as an oracle: ``test_wide_facts.py`` checks the planes engine
against it, and ``benchmarks/bench_wide_facts.py`` times the planes against
it.
"""

import numpy as np

from repro.core.selection.engine import EntropyEngine


class ObjectMaskEngine(EntropyEngine):
    """An :class:`EntropyEngine` whose support masks are Python ints.

    The candidate scan reads masks only through
    :func:`repro.core.entropy.bit_column`, which shifts and masks an object
    column one Python call per row; the interest cells are still built from
    the distribution's planes by the parent constructor.
    """

    def __init__(self, distribution, crowd, interest_ids=None):
        super().__init__(distribution, crowd, interest_ids=interest_ids)
        masks = np.empty(distribution.support_size, dtype=object)
        masks[:] = distribution.support()
        masks.setflags(write=False)
        self._masks = masks
