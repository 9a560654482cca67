"""Exact tiling certificates of a DIRECT rectangle store, for the tests:
no two rectangles of a `PartitionState` share an interior point, checked
with integer interval arithmetic on the base-3 numerators.
`direct.volume_fraction`, the other half of the certificate, stays in the
package, where the benchmark's tiling check reads it."""

import numpy as np

from abcdirect.direct import PartitionState


def interval_table(state: PartitionState):
    """Per-dimension base-3 integer intervals at a common refinement level.

    Returns (starts, ends, L): rectangle i spans
    [starts[i,d], ends[i,d]] / 3^L in dimension d.
    """
    levels = state._levels.astype(np.int64)
    L = int(levels.max())
    if L > 38:
        raise OverflowError("refinement too deep for int64 interval table")
    starts = np.empty((state.size, state.n), dtype=np.int64)
    scale = 3 ** (L - levels)
    for i in range(state.size):
        ex = state._exact[i]
        for d in range(state.n):
            starts[i, d] = ((ex[d] - 1) // 2) * scale[i, d]
    ends = starts + scale
    return starts, ends, L


def assert_disjoint_interiors(state: PartitionState, changed=None,
                              chunk: int = 512) -> None:
    """Certify that no two rectangles share an interior point, using exact
    integer interval arithmetic.

    With `changed` (ids whose geometry moved since the last certified
    partition) only changed-vs-all pairs are tested; unchanged pairs were
    disjoint before and their boxes are identical, so this is a complete
    inductive certificate. Without it every pair is tested (O(N^2) in
    chunks).
    """
    starts, ends, _ = interval_table(state)
    N = state.size
    rows = np.arange(N) if changed is None else np.asarray(changed, dtype=int)
    for lo in range(0, rows.size, chunk):
        sel = rows[lo:lo + chunk]
        s, e = starts[sel], ends[sel]
        # pair (i in sel, j in all): overlap iff open intervals intersect in
        # every dimension
        overlap = np.logical_and(
            s[:, None, :] < ends[None, :, :],
            starts[None, :, :] < e[:, None, :],
        ).all(axis=2)
        overlap[np.arange(sel.size), sel] = False  # self-pairs
        if overlap.any():
            i, j = np.argwhere(overlap)[0]
            raise AssertionError(
                f"rectangles {sel[i]} and {j} share interior points"
            )
