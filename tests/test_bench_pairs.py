"""The paired-benchmark driver ``scripts/bench_pairs.py``: its alternation,
its pair statistics and its side directories, without starting a process."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs", [2, 3, 5])
def test_alternate_swaps_the_first_side_each_pair(bench_pairs, pairs):
    sides = {"base": Path("b"), "change": Path("c")}
    calls = []

    def fake(label):
        def once(tree):
            calls.append((label, tree))
            return len(calls)  # the call's number, 1-based
        return once

    entries = {label: fake(label) for label in (" one", " two")}
    runs = bench_pairs.alternate("fake", sides, pairs, entries, str)
    assert len(calls) == pairs * 2 * 2
    for k in range(pairs):
        pair = calls[4 * k:4 * (k + 1)]
        first, second = (Path("b"), Path("c")) if k % 2 == 0 else (Path("c"), Path("b"))
        assert pair == [(" one", first), (" one", second), (" two", first), (" two", second)]
    for label in entries:
        for side, tree in sides.items():
            assert len(runs[label][side]) == pairs
            assert all(calls[n - 1] == (label, tree) for n in runs[label][side])


@pytest.mark.parametrize("better, wins", [("lower", 1), ("higher", 2)])
def test_paired_counts_wins_in_the_better_direction(bench_pairs, better, wins):
    stats = bench_pairs.paired([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 4.5], "s", better)
    assert stats["pair_wins"] == wins  # the tie in pair 2 counts for neither side
    assert stats["pairs"] == 4
    assert stats["better"] == better
    assert stats["base"]["median"] == 2.5
    assert stats["change"]["median"] == 2.75
    assert stats["change_over_base"] == 2.75 / 2.5


def test_paired_median_gap_against_base_iqr(bench_pairs):
    base = [1.0, 2.0, 3.0, 4.0, 5.0]  # median 3, iqr 2
    assert not bench_pairs.paired(base, [4.0] * 5, "s", "lower")["median_gap_exceeds_base_iqr"]
    assert not bench_pairs.paired(base, [5.0] * 5, "s", "lower")["median_gap_exceeds_base_iqr"]
    assert bench_pairs.paired(base, [5.5] * 5, "s", "lower")["median_gap_exceeds_base_iqr"]
    assert bench_pairs.paired(base, [0.5] * 5, "s", "higher")["median_gap_exceeds_base_iqr"]


def test_side_directories_have_names_of_one_length(bench_pairs):
    names = bench_pairs.SIDE_DIRS
    assert set(names) == {"base", "change"}
    assert len(set(names.values())) == 2
    assert len({len(name) for name in names.values()}) == 1
