"""The pmf marginal kernel in full batches.

``EntropyOracle.array()`` computes every nonempty subset of a pmf source
in one batch of ``sources._PmfMarginals`` passes; a lazy ``entropy`` miss
runs a one-mask pass.  Each value must equal the per-mask
``pmf.sum(axis=drop)`` entropy bit for bit, so the pmf golden digests
cannot move whichever way a subset is reached.
"""

import numpy as np
import pytest

from omniex import DmmsSource, EntropyOracle, make_dmms_source

from test_sources import PMF_KERNEL_CASES, pmf_entropy_reference, skewed_pmf


@pytest.mark.parametrize("shape, zeros, order", PMF_KERNEL_CASES)
def test_pmf_table_equals_the_per_mask_sums(shape, zeros, order):
    pmf = skewed_pmf(shape, seed=len(shape) * 31 + sum(shape), zeros=zeros,
                     order=order)
    src = make_dmms_source(shape, pmf)
    table = EntropyOracle(src).array()
    assert table.dtype == np.float64
    assert table[0] == 0.0
    want = [pmf_entropy_reference(src.pmf, s) for s in range(1, 1 << len(shape))]
    assert table[1:].tolist() == want
    if order == "F":
        # A table built directly is read as its C-ordered copy.
        raw = EntropyOracle(DmmsSource(alphabets=shape, pmf=pmf)).array()
        assert raw.tolist() == table.tolist()
