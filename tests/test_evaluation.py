import random

import pytest

from densecf import (
    EditList,
    Graph,
    InstanceRecord,
    MethodRunSummary,
    QuartileSummary,
    RegionPartition,
    flip_rate,
    region_change_summary,
    summarize_distribution,
)
from densecf.evaluation import (
    EmptyDistributionError,
    build_aggregate_report,
    read_records_csv,
    write_records_csv,
)
from conftest import random_graph


def record(predicted, found, **kw):
    base = dict(
        instance=0,
        name="g",
        true_label=predicted,
        predicted_label=predicted,
        found=found,
        iterations=1,
        oracle_calls=2,
        distance=1 if found else 0,
        distance_ratio=0.5 if found else None,
    )
    base.update(kw)
    return InstanceRecord(**base)


@pytest.mark.parametrize("field", ["instance", "iterations", "oracle_calls", "distance"])
def test_negative_count_rejected(field):
    # records.csv writes counts as ASCII digits, which hold no sign
    with pytest.raises(ValueError, match="must be non-negative"):
        record(0, False, **{field: -1})


class TestFlipRate:
    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError, match="summary has no records"):
            flip_rate(MethodRunSummary("tri", "d", ()))

    def test_all_found(self):
        summary = MethodRunSummary(
            "tri", "d", (record(0, True), record(1, True), record(1, True))
        )
        assert flip_rate(summary) == (100.0, 100.0)

    def test_partial_and_missing_class(self):
        summary = MethodRunSummary(
            "tri",
            "d",
            (record(0, True), record(0, True), record(0, True), record(0, False)),
        )
        assert flip_rate(summary) == (75.0, None)

    def test_rates_bounded(self):
        rng = random.Random(1)
        for _ in range(50):
            records = tuple(
                record(rng.randrange(2), rng.random() < 0.5, instance=i)
                for i in range(rng.randrange(1, 20))
            )
            r0, r1 = flip_rate(MethodRunSummary("m", "d", records))
            for rate, cls in ((r0, 0), (r1, 1)):
                group = [r for r in records if r.predicted_label == cls]
                if not group:
                    assert rate is None
                else:
                    assert 0.0 <= rate <= 100.0
                    if all(r.found for r in group):
                        assert rate == 100.0


class TestQuartiles:
    def test_single_value(self):
        q = summarize_distribution([5.0])
        assert q.as_tuple() == (5.0, 5.0, 5.0, 5.0, 5.0)

    def test_five_values(self):
        q = summarize_distribution([1, 2, 3, 4, 5])
        assert q.as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDistributionError):
            summarize_distribution([])

    def test_matches_sort_and_index_oracle(self):
        rng = random.Random(3)
        for _ in range(60):
            values = [rng.uniform(-10, 10) for _ in range(rng.randrange(1, 40))]
            q = summarize_distribution(values)
            data = sorted(values)

            def percentile(p):
                rank = (len(data) - 1) * p / 100
                lo = int(rank)
                hi = min(lo + 1, len(data) - 1)
                return data[lo] + (rank - lo) * (data[hi] - data[lo])

            expected = tuple(percentile(p) for p in (0, 25, 50, 75, 100))
            assert q.as_tuple() == pytest.approx(expected)
            assert q.q0 == min(values)
            assert q.q4 == max(values)

    def test_monotone_invariant_enforced(self):
        with pytest.raises(ValueError):
            QuartileSummary(1, 0, 2, 3, 4)


class TestRegionChangeSummary:
    def test_all_additions_internal_to_one_region(self):
        g = Graph(6)
        partition = RegionPartition(("r", "r", "r", "s", "s", "s"))
        counterfactual = Graph(6, [(0, 1), (1, 2)])
        summary = region_change_summary(g, counterfactual, partition)
        by_name = {row.region: row for row in summary.rows}
        assert by_name["r"].added_pct == 100.0
        assert by_name["s"].added_pct == 0.0
        assert summary.added_total == 2
        assert summary.removed_total == 0

    def test_spanning_edge_splits_endpoints(self):
        g = Graph(4)
        partition = RegionPartition(("a", "a", "b", "b"))
        counterfactual = Graph(4, [(1, 2)])
        summary = region_change_summary(g, counterfactual, partition)
        by_name = {row.region: row for row in summary.rows}
        assert by_name["a"].added_pct == 50.0
        assert by_name["b"].added_pct == 50.0

    def test_columns_sum_to_hundred(self):
        rng = random.Random(7)
        names = ["frontal", "parietal", "occipital"]
        for _ in range(40):
            g = random_graph(10, 0.5, rng)
            h = random_graph(10, 0.5, rng)
            partition = RegionPartition(tuple(rng.choice(names) for _ in range(10)))
            summary = region_change_summary(g, h, partition)
            edits = EditList.between(g, h)
            assert summary.added_total == len(edits.additions)
            assert summary.removed_total == len(edits.removals)
            if edits.additions:
                assert sum(r.added_pct for r in summary.rows) == pytest.approx(100, abs=1e-9)
            if edits.removals:
                assert sum(r.removed_pct for r in summary.rows) == pytest.approx(100, abs=1e-9)

    def test_totals_match_edit_list(self):
        g = Graph(5, [(0, 1), (2, 3)])
        h = Graph(5, [(0, 1), (3, 4), (1, 2)])
        partition = RegionPartition(("x",) * 5)
        summary = region_change_summary(g, h, partition)
        assert summary.removed_total == 1
        assert summary.added_total == 2


class TestRecordsRoundTrip:
    def make_summaries(self):
        rng = random.Random(11)
        out = []
        for method in ("tri", "dat"):
            records = []
            for i in range(12):
                found = rng.random() < 0.7
                records.append(
                    record(
                        rng.randrange(2),
                        found,
                        instance=i,
                        name=f"g{i}",
                        iterations=rng.randrange(1, 50),
                        oracle_calls=rng.randrange(1, 500),
                        distance=rng.randrange(1, 40) if found else 0,
                        distance_ratio=rng.random() if found else None,
                    )
                )
            out.append(MethodRunSummary(method, "demo", tuple(records)))
        return out

    def test_csv_round_trip(self, tmp_path):
        summaries = self.make_summaries()
        path = tmp_path / "records.csv"
        write_records_csv(summaries, path)
        assert read_records_csv(path) == summaries

    def test_aggregates_recomputable_from_records(self, tmp_path):
        summaries = self.make_summaries()
        path = tmp_path / "records.csv"
        write_records_csv(summaries, path)
        assert build_aggregate_report(read_records_csv(path)) == build_aggregate_report(summaries)

    def test_aggregate_structure(self):
        report = build_aggregate_report(self.make_summaries())
        assert report["settings"]["percentile_interpolation"] == "linear"
        for method in ("tri", "dat"):
            entry = report["per_method"][method]
            assert entry["attempted"] == 12
            assert set(entry["oracle_calls"]) == {"q0", "q1", "q2", "q3", "q4"}
            values = entry["oracle_calls"]
            assert values["q0"] <= values["q2"] <= values["q4"]
