"""Kept only for ``perfbench/run.py``, which reads ``using_numba()`` for its
environment line.  citegen has no compiled path; this module goes when
``perfbench/`` next changes.
"""


def using_numba() -> bool:
    return False
