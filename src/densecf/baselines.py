"""Comparison search methods: random edge flips, nearest unlike neighbor in a
dataset, and a backward pass that shrinks a found counterfactual's edit set."""

from __future__ import annotations

import logging
import random
from itertools import chain
from math import isqrt

from .data import ConfigurationError, GraphDataset
from .density import CounterfactualResult, RunOptions, finish_result
from .graph import Edge, EditList, Graph, symmetric_difference_distance
from .spectral import Oracle

logger = logging.getLogger(__name__)

DEFAULT_EDG_MAX_ITERATIONS = 2000


class InvalidCandidateError(ValueError):
    """Backward search got a candidate that does not classify opposite."""


def edg_search(
    oracle: Oracle, g: Graph, options: RunOptions = RunOptions()
) -> CounterfactualResult:
    """Flip one uniformly random edge per iteration until the class flips.

    A present edge is removed, an absent one added; the pair is drawn
    uniformly over all node pairs. At most ``options.max_iterations`` flips
    are tried (default 2000). A flip is refined by :func:`refine_with_backward`,
    as in ``dat+bw`` and ``rcli+bw``. Deterministic for a given seed.
    """
    max_iterations = (
        options.max_iterations if options.max_iterations is not None else DEFAULT_EDG_MAX_ITERATIONS
    )
    calls_before = oracle.call_count
    y0 = oracle.predict(g)
    n = g.node_count
    if n < 2:
        return finish_result(oracle, g, y0, None, 0, calls_before, "graph has no node pairs")
    rng, pairs = random.Random(options.seed), n * (n - 1) // 2
    flips = ((pair_at(n, rng.randrange(pairs)),) for _ in range(max_iterations))
    iterations, flipped = oracle.walk(g, y0, flips)
    base = finish_result(oracle, g, y0, flipped, iterations, calls_before)
    return refine_with_backward(oracle, g, base)


def pair_at(n: int, k: int) -> Edge:
    """The ``k``-th pair of ``itertools.combinations(range(n), 2)``, found
    without listing the pairs before it."""
    back = n * (n - 1) // 2 - 1 - k  # the index counted from the last pair
    t = (isqrt(8 * back + 1) - 1) // 2  # the last t rows hold t(t + 1)/2 pairs
    return n - 2 - t, n - 1 - (back - t * (t + 1) // 2)


def dat_search(oracle: Oracle, g: Graph, dataset: GraphDataset | None) -> CounterfactualResult:
    """Return the dataset graph closest to ``g`` among those the oracle puts
    in the opposite class (distance ties go to the lowest dataset index).

    Every dataset graph is classified, so this always finds a counterfactual
    when the oracle predicts both classes somewhere in the dataset. A missing
    (None) or empty dataset is a ConfigurationError.
    """
    if not dataset:
        raise ConfigurationError("dat needs a dataset with at least one graph")
    calls_before = oracle.call_count
    y0 = oracle.predict(g)
    best: tuple[int, int, Graph] | None = None
    for idx, entry in enumerate(dataset):
        if oracle.predict(entry.graph) == y0:
            continue
        d = symmetric_difference_distance(g, entry.graph)
        if best is None or (d, idx) < best[:2]:
            best = (d, idx, entry.graph)
    iterations = len(dataset)
    if best is None:
        note = f"no graph among {len(dataset)} classifies opposite to the input"
        logger.warning(note)
        return finish_result(oracle, g, y0, None, iterations, calls_before, note=note)
    return finish_result(oracle, g, y0, best[2], iterations, calls_before)


def backward_search(
    oracle: Oracle,
    g: Graph,
    candidate: Graph,
    input_class: int,
    candidate_class: int,
) -> Graph:
    """Greedily revert edits of ``candidate`` that are not needed for the flip.

    Passes over the symmetric-difference edits in a fixed order (removals then
    additions, lexicographic), keeping a revert whenever the class stays
    opposite to the input's; repeats until a full pass keeps nothing. The
    result never classifies like ``g`` and is never farther from it than
    ``candidate``.

    The two classes are those the caller already charged for ``g`` and
    ``candidate``; classes that agree raise :class:`InvalidCandidateError`.
    """
    if candidate_class == input_class:
        raise InvalidCandidateError("candidate classifies the same as the input graph")
    current = candidate
    while True:
        changed = False
        edits = EditList.between(g, current)
        for u, v in chain(edits.removals, edits.additions):  # a revert toggles the pair back
            toggle = current.remove_edge if current.has_edge(u, v) else current.add_edge
            tentative = toggle(u, v)
            if oracle.predict(tentative) != input_class:
                current = tentative
                changed = True
        if not changed:
            return current


def refine_with_backward(
    oracle: Oracle, g: Graph, base: CounterfactualResult
) -> CounterfactualResult:
    """The backward step of ``edg`` and the "+bw" methods: shrink a found
    result's edits with :func:`backward_search`.

    ``base`` must be the result of a search of ``g`` on this oracle that just
    ended; the returned result charges its calls plus the refinement's. A
    not-found result passes through unchanged.
    """
    if not base.found:
        return base
    calls_before = oracle.call_count - base.oracle_calls
    y0 = base.input_class
    refined = backward_search(oracle, g, base.counterfactual, y0, 1 - y0)
    return finish_result(oracle, g, y0, refined, base.iterations, calls_before)
