"""The benchmark's own arithmetic: tail percentile, self time, repeat counts,
and patching every binding of a function.

    python3 -m pytest perfbench/tests
"""

import sys
import types

import pytest

from perfbench import stats, tracing


@pytest.mark.parametrize(
    "n, label, rank, beyond",
    [
        (20, "p50", 10, 10),
        (39, "p50", 20, 19),
        (40, "p75", 30, 10),
        (199, "p90", 180, 19),
        (200, "p95", 190, 10),
        (240, "p95", 228, 12),
        (1000, "p99", 990, 10),
        (10_000, "p99.9", 9990, 10),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, label, rank, beyond):
    samples = [float(v) for v in range(n, 0, -1)]  # any order
    assert stats.tail_percentile(samples) == (label, float(rank), beyond)


def test_tail_falls_back_to_max_below_twenty_samples():
    assert stats.tail_percentile([3.0, 1.0, 2.0] * 6) == ("max", 3.0, 0)
    with pytest.raises(ValueError):
        stats.tail_percentile([])


def test_self_time_is_span_minus_direct_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    parent = [tracing.NO_PARENT, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracing.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]
    assert tracing.roots(parent) == [0, 0, 0, 0]


def test_spans_record_parents_and_totals_by_name():
    spans = tracing.Spans()

    def inner():
        return 1

    wrapped_inner = tracing.traced(spans, "inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_outer = tracing.traced(spans, "outer", outer)
    assert wrapped_outer() == 2
    assert [spans.name_of(i) for i in range(len(spans))] == ["outer", "inner", "inner"]
    assert list(spans.parent) == [tracing.NO_PARENT, 0, 0]
    totals = tracing.totals_by_name(spans, range(len(spans)))
    calls, total, own = totals["outer"]
    inner_calls, inner_total, inner_own = totals["inner"]
    assert (calls, inner_calls) == (1, 2)
    assert own == pytest.approx(total - inner_total)
    assert inner_own == pytest.approx(inner_total)
    name_id = spans.name_index("outer")
    assert tracing.has_ancestor(spans.parent, spans.name_id, 2, name_id)
    assert not tracing.has_ancestor(spans.parent, spans.name_id, 0, name_id)


def test_repeat_fractions_count_within_search_and_run():
    counter = tracing.RepeatCounter()
    counter.start_search()
    for key in ("a", "b", "a"):  # one repeat in search, one in run
        counter.observe(key)
    counter.start_search()
    for key in ("a", "c", "c"):  # "a" repeats only in the run; "c" in both
        counter.observe(key)
    assert (counter.evaluations, counter.repeats_in_search, counter.repeats_in_run) == (6, 2, 3)
    assert counter.fractions() == (2 / 6, 3 / 6)
    assert tracing.RepeatCounter().fractions() == (0.0, 0.0)


def test_patches_replace_every_binding_and_restore(monkeypatch):
    def work(x):
        return x + 1

    class Thing:
        def method(self):
            return "m"

    base = types.ModuleType("fakepkg.base")
    base.work, base.Thing = work, Thing
    user = types.ModuleType("fakepkg.user")
    user.work = work  # bound by name, as "from .base import work" does
    outside = types.ModuleType("otherpkg")
    outside.work = work
    for module in (base, user, outside):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    patches = tracing.Patches("fakepkg")
    patches.replace("fakepkg.base:work", lambda fn: lambda x: fn(x) * 10)
    patches.replace("fakepkg.base:Thing.method", lambda fn: lambda self: fn(self) * 2)
    assert (base.work(1), user.work(1), outside.work(1)) == (20, 20, 2)
    assert Thing().method() == "mm"
    patches.restore()
    assert base.work is work and user.work is work
    assert Thing().method() == "m"
