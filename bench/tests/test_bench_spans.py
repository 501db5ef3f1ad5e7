from array import array

import pytest

import spans


def _self(rows):
    parent, start, end = (array(t, col) for t, col in zip("idd", zip(*rows)))
    return list(spans.self_times(parent, start, end)), spans._covered(parent, start, end)[-1]


def test_self_time_of_nested_spans():
    # a [0,10] holds b [1,4] and c [5,7]; b holds d [2,3]; e [12,13] is a second root
    got, roots = _self([(-1, 0, 10), (0, 1, 4), (1, 2, 3), (0, 5, 7), (-1, 12, 13)])
    assert got == pytest.approx([5, 2, 1, 2, 1])
    assert sum(got) == pytest.approx(roots) == pytest.approx(11)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [1,4] and [3,6] cover [1,6]; a child running past its parent is clipped
    got, _ = _self([(-1, 0, 10), (0, 1, 4), (0, 3, 6), (-1, 20, 22), (3, 21, 25)])
    assert got[0] == pytest.approx(5)
    assert got[3] == pytest.approx(1)


def test_tracer_wraps_aliases_and_restores_them(capsys):
    import incalg.cli as cli
    import incalg.comparability as comparability
    import incalg.mult_automorphisms as ma

    original = ma.find_potential
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.find_potential is not original
        assert cli.find_potential is ma.find_potential
        assert cli.run_command(["info", "--poset", "nope.txt"]) == 2
        comparability.ComparabilityGraph(_crown())
    finally:
        tracer.remove()
    capsys.readouterr()
    assert cli.find_potential is original and ma.find_potential is original
    report = tracer.report()
    assert report["cli.run_command.calls"] == 1
    assert report["comparability.ComparabilityGraph.calls"] == 1
    assert report["mult_automorphisms.find_potential.calls"] == 0
    names = {name for name, _ in spans.metric_names()}
    assert set(report) <= names
    self_total = sum(v for k, v in report.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(tracer.root_coverage())


def _crown():
    from incalg.preorder_core import close_relations
    return close_relations("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]).quotient()
