"""compare.py verdicts on synthetic runs."""

from compare import compare, verdict

A = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def _pairs(a, b):
    return list(zip(a, b))


def test_same_runs_are_unchanged():
    row = verdict(A, A, _pairs(A, A), "higher", 0.1)
    assert row["verdict"] == "unchanged"
    assert row["change"] == 0.0


def test_beyond_the_bound_is_worse():
    b = [v * 0.85 for v in A]
    assert verdict(A, b, _pairs(A, b), "higher", 0.1)["verdict"] == "worse"
    assert verdict(A, [v * 1.2 for v in A], [], "lower", 0.1)["verdict"] == "worse"


def test_consistent_gain_beyond_the_spread_is_better():
    b = [v * 1.05 for v in A]
    row = verdict(A, b, _pairs(A, b), "higher", 0.1)
    assert row["wins"] == 10 and row["verdict"] == "better"


def test_gain_within_the_spread_is_not_claimed():
    b = [v + 0.1 for v in A]
    assert verdict(A, b, _pairs(A, b), "higher", 0.1)["verdict"] == "unchanged"


def test_wide_spread_is_unresolved():
    a = [100.0, 150.0, 80.0, 120.0, 60.0]
    b = [110.0, 70.0, 140.0, 90.0, 100.0]
    assert verdict(a, b, _pairs(a, b), "higher", 0.1)["verdict"] == "unresolved"


def test_exact_metrics_and_digests_must_match():
    spec = {"workloads": [{"name": "fig1-skew"}, {"name": "fig1-skew-2proc"}],
            "end_to_end": [{"name": "x", "unit": "s", "better": "lower",
                            "bound": 0.1}]}

    def run(x, digest, sim):
        return {"x": x, "digest": digest, "sim": {"sim.migrations": sim}}

    a = {"runs": {("fig1-skew", 0): run(1.0, "d0", 5.0),
                  ("fig1-skew-2proc", 0): run(1.2, "d0", 5.0)}}
    b = {"runs": {("fig1-skew", 0): run(1.0, "d0", 5.0),
                  ("fig1-skew-2proc", 0): run(1.1, "dX", 6.0)}}
    rows, problems = compare(a, b, spec)
    assert [row["verdict"] for _, _, row in rows] == ["unchanged", "better"]
    assert len(problems) == 3
