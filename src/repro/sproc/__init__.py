"""SPROC: Sequential Processing of fuzzy Cartesian queries (Section 3.2).

The paper quotes its companion work [15, 16]: composite-object queries —
"locate the top-K data patterns that satisfy the fuzzy and/or
probabilistic rules" — are fuzzy Cartesian products whose naive
evaluation costs ``O(L^M)`` for L database objects and M query
components. SPROC's dynamic program reduces this to ``O(M*K*L^2)``, and
the improved algorithm of [16] to roughly
``O(M*L*log L + sqrt(L*K) + K^2*log K)``.

* :mod:`repro.sproc.query` — the query model: per-component fuzzy scores
  plus pairwise compatibility between consecutive components.
* :mod:`repro.sproc.naive` — exhaustive ``O(L^M)`` evaluation.
* :mod:`repro.sproc.dp` — the SPROC dynamic program.
* :mod:`repro.sproc.fast` — sorted best-first evaluation with admissible
  score bounds (the [16] improvement's sorted-list/early-termination
  idea).
* :mod:`repro.sproc.arbitration` — each implementation's complexity
  formula as a routing size, and the routed ``composite_top_k`` the
  serving layer calls.

The three implementations return identical top-K answer sets
(tested); they differ only in counted work.
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".dp": "sproc_top_k",
        ".fast": "fast_top_k",
        ".naive": "naive_top_k",
        ".query": "Assignment CompositeQuery",
        ".spatial": (
            "CompositeMatch find_surrounded surrounded_by_query "
            "surroundedness"
        ),
    },
)
