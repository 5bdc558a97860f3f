"""Reference implementations kept only as equivalence oracles.

Each module here holds the straightforward, per-entity or scalar form of
a production routine that ``src/`` has since replaced with a faster one.
The production module keeps a single code path; tests import these
oracles to pin that the fast path returns the same bits (and leaves
random generators in the same state).
"""
