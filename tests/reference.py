"""Dense helpers that ``sphq`` itself does not use, kept for the tests'
references."""

from sphq.linalg import QQ, Matrix


def vstack(mats):
    """The matrices stacked top to bottom, each row copied."""
    mats = list(mats)
    if not mats:
        return Matrix.zero(0, 0, QQ)
    cols = mats[0].cols
    assert all(m.cols == cols for m in mats)
    entries = []
    for m in mats:
        entries.extend(row[:] for row in m.entries)
    return Matrix(len(entries), cols, entries, mats[0].field)
