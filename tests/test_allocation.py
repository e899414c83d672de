import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowd_consensus import (
    Corpus,
    make_plan,
    oracle_ranking,
    rank_by_disagreement,
    status_quo_ranking,
    sweep,
)
from crowd_consensus.allocation import _MC_TRIAL_CHUNK, TRUTH_MIN_COUNT
from crowd_consensus.errors import InvalidArgument, KeyMismatch

from conftest import (
    make_random_corpus,
    reference_exact_capture,
    reference_mc,
    reference_truth_counts,
    scattered_ids,
    vq,
)


def test_rank_by_disagreement():
    assert rank_by_disagreement([0.2, 0.9, 0.5]) == [1, 2, 0]
    assert rank_by_disagreement(np.array([0.2, 0.9, 0.5])) == [1, 2, 0]
    # NaN was once ranked last, behind every real score, without an error.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            rank_by_disagreement([0.2, bad, 0.5])


def test_rank_ties_break_by_ascending_id():
    # Rows are in ascending id order, so the lower row is the lower id.
    assert rank_by_disagreement([0.5, 0.5, 0.5]) == [0, 1, 2]
    assert rank_by_disagreement([0.5, 0.9, 0.0, 0.5, 0.9]) == [1, 4, 0, 3, 2]


def test_rank_singleton():
    assert rank_by_disagreement([0.1]) == [0]


def test_status_quo_ranking_deterministic():
    rows = list(range(50))
    assert status_quo_ranking(50, seed=4) == status_quo_ranking(50, seed=4)
    assert status_quo_ranking(50, seed=4) != status_quo_ranking(50, seed=5)
    assert sorted(status_quo_ranking(50, seed=4)) == rows
    assert status_quo_ranking(1, seed=0) == [0]
    assert all(type(row) is int for row in status_quo_ranking(50, seed=4))


def test_status_quo_seed_must_be_an_integer_in_range():
    # 1.5 gave numpy's bare TypeError, -1 and [0, -1] its bare ValueError,
    # True was read as seed 1, and None drew fresh entropy.
    for seed in (1.5, -1, 2**64, [0, -1], [0, 2**64], [0, True], True, None, np.int64(4), (4, 0)):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            status_quo_ranking(5, seed)
    for seed in (0, 2**64 - 1, [2**64 - 1, 3]):
        assert status_quo_ranking(5, seed) == np.random.default_rng(seed).permutation(5).tolist()


def _diversity_corpus():
    return Corpus.from_questions(
        [
            vq(1, "is it day", ["yes"] * 10),  # truth {yes}
            vq(2, "what color", ["red"] * 4 + ["blue"] * 3 + ["tan"] * 3),  # 3 truths
            vq(3, "how many", ["2"] * 5 + ["3"] * 5),  # 2 truths
        ]
    )


def test_oracle_ranking_orders_by_truth_count():
    assert oracle_ranking(_diversity_corpus()) == [1, 2, 0]  # ids 2, 3, 1


def test_oracle_ranking_tie_rule():
    corpus = Corpus.from_questions(
        [vq(i, "is it", ["yes"] * 10) for i in (3, 1, 2)]
    )
    assert oracle_ranking(corpus) == [0, 1, 2]


def test_truth_threshold_is_two():
    assert TRUTH_MIN_COUNT == 2
    table = _diversity_corpus().answer_table
    assert table.distinct_at_least(TRUTH_MIN_COUNT).tolist() == [1, 3, 2]
    singles = Corpus.from_questions([vq(1, "what", [f"w{i}" for i in range(10)])])
    assert singles.answer_table.distinct_at_least(TRUTH_MIN_COUNT).tolist() == [0]
    pair = Corpus.from_questions([vq(1, "what", ["w1"] * 2 + [f"w{i}" for i in range(2, 10)])])
    assert pair.answer_table.distinct_at_least(TRUTH_MIN_COUNT).tolist() == [1]


def test_make_plan_arithmetic():
    counts = make_plan([3, 1, 2, 0], budget=2, s=1, r=5)
    assert counts.dtype == np.int64
    assert counts.tolist() == [1, 5, 1, 5]
    assert counts.sum() == 12


def test_make_plan_boundaries():
    ranking = [2, 0, 1]
    assert make_plan(ranking, 0).tolist() == [1, 1, 1]
    assert make_plan(ranking, 3).tolist() == [5, 5, 5]


def test_make_plan_validation():
    with pytest.raises(InvalidArgument):
        make_plan([0, 1], budget=3)
    with pytest.raises(InvalidArgument):
        make_plan([0, 1], budget=-1)
    with pytest.raises(InvalidArgument):
        make_plan([0, 1], budget=1, s=0, r=5)
    with pytest.raises(InvalidArgument):
        make_plan([0, 1], budget=1, s=5, r=5)
    with pytest.raises(InvalidArgument, match=r"R < 2\*\*63"):
        make_plan([0, 1], budget=1, s=1, r=2**63 + 1)  # would overflow the int64 counts
    assert make_plan([1, 0], budget=1, s=1, r=2**63 - 1).tolist() == [1, 2**63 - 1]
    # R = 5.5 once became 5 in the int64 counts without an error.
    with pytest.raises(InvalidArgument):
        make_plan([1, 0], budget=1.0)
    for s, r in ((1, 5.5), (1.0, 5), (1, "5")):
        with pytest.raises(InvalidArgument):
            make_plan([1, 0], budget=2, s=s, r=r)
    assert make_plan([1, 0], np.int64(1), np.int64(2), np.int64(6)).tolist() == [2, 6]
    # A bool is an Integral: make_plan(range(6), True, True, 5) once gave counts [5, 1, 1, 1, 1, 1].
    for budget in (True, False):
        with pytest.raises(InvalidArgument):
            make_plan(range(6), budget)
    for s, r in ((True, 5), (1, True), (np.True_, 5)):
        with pytest.raises(InvalidArgument):
            make_plan(range(6), 1, s, r)


def test_make_plan_refuses_a_ranking_that_is_not_a_permutation():
    # [0, 0] once gave counts [5, 1] at budget 2: six answers where ten were spent.
    for ranking in ([0, 0], [1, 2], [0, 1, 3], [[0, 1]], [0.0, 1.0]):
        with pytest.raises(KeyMismatch, match="ranking 'plan' is not a permutation"):
            make_plan(ranking, budget=len(ranking))


def _single_question_corpus():
    return Corpus.from_questions([vq(1, "is it day", ["yes"] * 8 + ["no"] * 2)])


def _scored(corpus, ranking, budget, s=1, r=5, **mode):
    """sweep's row for the one plan that gives the first `budget` rows of `ranking` R answers."""
    [row] = sweep(corpus, {"plan": [ranking]}, [budget], s, r, **mode)
    return row


def test_simulate_exact_single_question():
    corpus = _single_question_corpus()
    row = _scored(corpus, [0], 1)
    # One certain answer plus one with 2 of 10 copies, drawing 5.
    assert row.diversity == pytest.approx(
        1 + (1 - math.comb(8, 5) / math.comb(10, 5)), abs=1e-12
    )
    assert sum(reference_truth_counts(corpus).values()) == 2
    assert row.diversity_fraction == row.diversity / 2
    assert row.answers_spent == 5
    unanimous = Corpus.from_questions([vq(1, "is it day", ["yes"] * 10)])
    for budget in (0, 1):  # one answer, then five
        assert _scored(unanimous, [0], budget).diversity == 1.0
    # Drawing the whole pool (R = A) captures every truth answer.
    full = Corpus.from_questions([vq(1, "what", ["a"] * 4 + ["b"] * 3 + ["c"] * 2 + ["d"])])
    assert _scored(full, [0], 1, 1, 10).diversity == 3


def test_simulate_monte_carlo_tracks_exact():
    corpus = _single_question_corpus()
    exact = _scored(corpus, [0], 1, mode="exact")
    mc = _scored(corpus, [0], 1, mode="mc", trials=20_000, seed=3)
    assert mc.diversity == pytest.approx(exact.diversity, abs=0.02)
    again = _scored(corpus, [0], 1, mode="mc", trials=500, seed=3)
    assert again.diversity == _scored(corpus, [0], 1, mode="mc", trials=500, seed=3).diversity


def test_monte_carlo_consistency_on_small_corpus():
    corpus = Corpus.from_questions(
        [
            vq(1, "is it day", ["yes"] * 8 + ["no"] * 2),
            vq(2, "what color", ["red"] * 4 + ["blue"] * 3 + ["tan"] * 3),
            vq(3, "is it new", ["no"] * 10),
        ]
    )
    ranking = [1, 0, 2]  # ids 2, 1, 3
    exact = _scored(corpus, ranking, 1, mode="exact")
    mc = _scored(corpus, ranking, 1, mode="mc", trials=100_000, seed=1)
    assert mc.diversity == pytest.approx(exact.diversity, abs=0.005)


def test_simulate_validation():
    corpus = _single_question_corpus()
    with pytest.raises(KeyMismatch):
        _scored(corpus, [0, 1], 1)
    with pytest.raises(KeyMismatch):
        _scored(corpus, [1], 1)  # the question id, not its row
    small = Corpus.from_questions([vq(1, "is it", ["x", "x", "y"])])
    with pytest.raises(InvalidArgument):
        _scored(small, [0], 0, 1, 5)
    with pytest.raises(ValueError):
        _scored(corpus, [0], 0, mode="bogus")
    with pytest.raises(ValueError):
        _scored(corpus, [0], 0, mode="mc", trials=0)


def test_budget_monotone_and_boundaries_on_random_corpora():
    for seed in range(8):
        corpus = make_random_corpus(12, seed=seed)
        n = len(corpus)
        rankings = [
            list(range(n)),
            status_quo_ranking(n, seed=seed),
            oracle_ranking(corpus),
        ]
        for ranking in rankings:
            last = -1.0
            for budget in range(n + 1):
                report = _scored(corpus, ranking, budget)
                assert report.diversity >= last
                last = report.diversity
        for budget in (0, n):
            values = {_scored(corpus, rk, budget).diversity for rk in rankings}
            assert len(values) == 1  # plan ignores order here


def test_sweep_rows_and_averaging():
    corpus = make_random_corpus(10, seed=2)
    order = list(range(10))
    budgets = [0, 5, 10]
    rows = sweep(corpus, {"ours": [order], "status_quo": [order, order]}, budgets)
    assert [(r.ranking, r.budget) for r in rows] == [
        ("ours", 0), ("ours", 5), ("ours", 10),
        ("status_quo", 0), ("status_quo", 5), ("status_quo", 10),
    ]
    for ours, status_quo in zip(rows[:3], rows[3:]):
        assert status_quo.diversity == pytest.approx(ours.diversity)  # identical orders
    for row in rows:
        assert row.answers_spent == row.budget * 5 + (10 - row.budget) * 1
        assert 0.0 <= row.diversity_fraction <= 1.0


def test_sweep_on_an_empty_corpus_gives_its_budget_zero_rows():
    # An empty ordering reads as float64 in numpy, yet is the one permutation of no rows.
    rows = sweep(Corpus.from_questions([]), {"ours": [[]], "oracle": [()]}, [0])
    assert [(r.ranking, r.budget, r.answers_spent, r.diversity) for r in rows] == [
        ("ours", 0, 0, 0.0), ("oracle", 0, 0, 0.0),
    ]


def _sizes(corpus, counts):
    return dict(zip(corpus.ids.tolist(), counts.tolist()))


def test_exact_sweep_is_the_correctly_rounded_rational():
    for seed in range(6):
        corpus = make_random_corpus(15, seed=seed)
        n = len(corpus)
        orderings = [status_quo_ranking(n, [seed, k]) for k in range(3)]
        budgets = list(range(n + 1))
        rows = sweep(corpus, {"ours": [oracle_ranking(corpus)], "sq": orderings},
                     budgets, s=2, r=6)
        max_div = sum(reference_truth_counts(corpus).values())
        for row in rows:
            variants = [oracle_ranking(corpus)] if row.ranking == "ours" else orderings
            want = sum(
                reference_exact_capture(corpus, _sizes(corpus, make_plan(rk, row.budget, 2, 6)))
                for rk in variants
            ) / len(variants)
            assert row.diversity == float(want)
            assert row.diversity_fraction == float(want / max_div)
        assert _scored(corpus, orderings[0], 7, 2, 6).diversity == float(
            reference_exact_capture(corpus, _sizes(corpus, make_plan(orderings[0], 7, 2, 6)))
        )


@given(
    n=st.integers(0, 8),
    corpus_seed=st.integers(0, 2**32 - 1),
    order_seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 3),
    s_r=st.sampled_from([(1, 5), (2, 6), (1, 10), (3, 4), (1, 2)]),
    mode=st.sampled_from(["exact", "mc"]),
)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_diversity_fraction_is_the_correctly_rounded_rational(
    n, corpus_seed, order_seed, count, s_r, mode
):
    # diversity_fraction was diversity / max_diversity, a second rounding of an
    # already rounded float, and so sometimes one ulp off.
    s, r = s_r
    trials = 7
    corpus = make_random_corpus(n, seed=corpus_seed)
    orderings = [status_quo_ranking(n, [order_seed, k]) for k in range(count)]
    rows = sweep(corpus, {"x": orderings}, range(n + 1), s, r, mode=mode, trials=trials,
                 seed=order_seed)
    max_div = sum(reference_truth_counts(corpus).values())

    def capture(ordering, budget):
        sizes = _sizes(corpus, make_plan(ordering, budget, s, r))
        if mode == "exact":
            return reference_exact_capture(corpus, sizes)
        # reference_mc's hit total is an int, so its float total / trials reads back exactly.
        return Fraction(round(reference_mc(corpus, sizes, trials, order_seed) * trials), trials)

    for row in rows:
        want = sum(capture(ordering, row.budget) for ordering in orderings) / count
        assert row.diversity == float(want)
        assert row.diversity_fraction == (1.0 if max_div == 0 else float(want / max_div))


def test_exact_diversity_depends_only_on_the_top_b_set():
    corpus = make_random_corpus(40, seed=11)
    ranking = status_quo_ranking(len(corpus), seed=3)
    rnd = random.Random(5)
    for budget in (0, 1, 13, 27, 40):
        top, rest = ranking[:budget], ranking[budget:]
        values = set()
        for _ in range(5):
            rnd.shuffle(top)
            rnd.shuffle(rest)
            reordered = top + rest
            values.add(sweep(corpus, {"x": [reordered]}, [budget])[0].diversity)
        assert len(values) == 1, budget


def test_sweep_validation():
    corpus = make_random_corpus(5, seed=1)
    rows = list(range(5))
    with pytest.raises(InvalidArgument):
        sweep(corpus, {"x": [rows]}, [6])
    with pytest.raises(InvalidArgument):
        sweep(corpus, {"x": [rows]}, [1], s=3, r=3)
    with pytest.raises(InvalidArgument):
        sweep(corpus, {"x": [rows]}, [1], r=11)
    # At budget True, prefix[True] once indexed by mask and gave a 2-D diversity.
    for budget in (True, False):
        with pytest.raises(InvalidArgument):
            sweep(corpus, {"x": [rows]}, [budget])
    with pytest.raises(InvalidArgument):
        sweep(corpus, {"x": [rows]}, [1], s=True)
    bad = [
        [rows[:-1] + rows[:1]],  # a repeated row
        [rows, rows[:-1]],  # one ordering too short
        [[1, 2, 3, 4, 5]],  # out of range
        [[0, 1, 2, 3, 4.5]],  # not an integer
        [[0.0, 1.0, 2.0, 3.0, 4.0]],  # floats, even integral ones
        [["0", "1", "2", "3", "4"]],  # not numbers
        rows,  # one ordering not wrapped in a list
    ]
    for orderings in bad:
        for mode in ("exact", "mc"):
            with pytest.raises(KeyMismatch, match="ranking 'x' is not a permutation"):
                sweep(corpus, {"x": orderings}, [1], mode=mode, trials=5)
    for orderings in ([], iter(())):  # no ordering, as a list or an exhausted iterator
        with pytest.raises(KeyMismatch, match="ranking 'x' has no ordering"):
            sweep(corpus, {"x": orderings}, [1])
    with pytest.raises(ValueError):
        sweep(corpus, {"x": [rows]}, [1], mode="bogus")
    # A huge count once ran until stopped; True ran one trial.
    for trials in (0, 2**31, 99999999999999999999, True, 1.5, 50.0):
        with pytest.raises(ValueError, match=r"trials must be in \[1, 2\*\*31\)"):
            sweep(corpus, {"x": [rows]}, [1], mode="mc", trials=trials)
    # The stream was seeded with seed mod 2**64, so 2**64 drew seed 0's trials
    # and -1 drew 2**64 - 1's; 1.5 raised a bare TypeError.
    for seed in (2**64, -1, 1.5, True, "1"):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            sweep(corpus, {"x": [rows]}, [1], mode="mc", trials=5, seed=seed)
    # The exact mode reads neither.
    assert sweep(corpus, {"x": [rows]}, [1], trials=True, seed=-1) == sweep(
        corpus, {"x": [rows]}, [1]
    )


def test_monte_carlo_follows_the_documented_stream():
    random12 = make_random_corpus(12, seed=4)
    # A negative id pins its mod-2**64 wrap; seed 2**64 - 5 is the top of the seed range.
    pools = [["a"] * 3 + ["b"] * 3 + ["c"] * 2 + ["d", "e"], ["x"] * 5 + ["y"] * 5]
    wrapped = Corpus.from_questions(
        [vq(qid, "what is it", pool) for qid, pool in zip((7, -3), pools)]
    )
    # More trials than one chunk of draws: the chunks continue one stream.
    chunked = 2 * _MC_TRIAL_CHUNK + 7
    cases = [
        (random12, status_quo_ranking(12, seed=2), [0, 5, 12], 8, 30),
        (wrapped, [0, 1], [0, 1, 2], 2**64 - 5, 30),  # ids -3, then 7
        (wrapped, [1, 0], [0, 1, 2], 3, chunked),
    ]
    for corpus, ranking, budgets, seed, trials in cases:
        rows = sweep(corpus, {"x": [ranking]}, budgets, mode="mc", trials=trials, seed=seed)
        for row in rows:
            counts = make_plan(ranking, row.budget)
            want = reference_mc(corpus, _sizes(corpus, counts), trials=trials, seed=seed)
            assert row.diversity == want
            assert _scored(
                corpus, ranking, row.budget, mode="mc", trials=trials, seed=seed
            ).diversity == want


def test_monte_carlo_terms_do_not_depend_on_the_other_questions():
    corpus = make_random_corpus(30, seed=6)
    rows = list(corpus)
    halves = [Corpus.from_questions(rows[0::2]), Corpus.from_questions(rows[1::2])]
    trials = 200

    def boundary_hits(c):
        rows = sweep(c, {"x": [list(range(len(c)))]}, [0, len(c)], mode="mc",
                     trials=trials, seed=12)
        return [round(row.diversity * trials) for row in rows]

    whole = boundary_hits(corpus)
    assert whole[0] < whole[1]
    assert whole == [sum(parts) for parts in zip(*map(boundary_hits, halves))]


def test_monte_carlo_sweep_keeps_one_question_in_memory():
    corpus = make_random_corpus(500, seed=9)
    corpus.answer_table.counts  # derived once per corpus, outside the measurement
    tracemalloc.start()
    try:
        sweep(corpus, {"x": [list(range(500))]}, [0, 250, 500], mode="mc", trials=1000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # All draws at once, a (500, 1000, 10) int64 tensor, would take 40 MB.
    # One question's (1000, 10) block is 80 kB; 4 MB leaves room for a few
    # such temporaries and the per-question terms, and is a tenth of 40 MB.
    assert peak < 4_000_000


def test_sweep_memory_does_not_grow_with_status_quo_orderings():
    corpus = make_random_corpus(5000, seed=6)
    corpus.answer_table.counts  # derived once per corpus, outside the measurement
    n = len(corpus)
    peaks, rows = {}, {}
    for seeds in (1, 20):
        orderings = (status_quo_ranking(n, [3, k]) for k in range(seeds))
        tracemalloc.start()
        try:
            rows[seeds] = sweep(corpus, {"status_quo": orderings}, [0, n // 2, n])
            _, peaks[seeds] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # Holding all 20 orderings as index arrays adds 20 * 8n bytes, 0.8 MB here.
    assert peaks[20] < 1.1 * peaks[1], peaks
    assert rows[20][1].diversity != rows[1][1].diversity  # the 20 orderings were all read


def test_monte_carlo_memory_does_not_grow_with_trials():
    corpus = make_random_corpus(3, seed=2)
    corpus.answer_table.counts  # derived once per corpus, outside the measurement
    tracemalloc.start()
    try:
        sweep(corpus, {"x": [[0, 1, 2]]}, [0, 3], mode="mc", trials=100_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Drawing all 10^5 trials of a question at once takes 17 MB (an int64
    # (trials, 10) block plus a boolean block); one chunk of trials takes
    # well under a megabyte.
    assert peak < 2_000_000


def test_rows_and_ids_agree_with_an_id_keyed_reference():
    corpus = scattered_ids(make_random_corpus(30, seed=8), seed=1)
    ids = corpus.ids.tolist()
    n = len(ids)
    assert all(qid != row for row, qid in enumerate(ids))
    rng = np.random.default_rng(4)
    p_by_id = {qid: int(rng.integers(0, 6)) / 5 for qid in ids}  # many ties

    def by_id(ranking):
        return [ids[row] for row in ranking]

    ours = rank_by_disagreement([p_by_id[qid] for qid in ids])
    assert by_id(ours) == sorted(ids, key=lambda qid: (-p_by_id[qid], qid))
    truth = reference_truth_counts(corpus)
    oracle = oracle_ranking(corpus)
    assert by_id(oracle) == sorted(ids, key=lambda qid: (-truth[qid], qid))
    sq = [status_quo_ranking(n, [9, k]) for k in range(2)]
    orderings = {"ours": [ours], "oracle": [oracle], "sq": sq}

    def sizes(ranking, budget, s=1, r=5):
        return {qid: r if pos < budget else s for pos, qid in enumerate(by_id(ranking))}

    budgets = [0, 7, 18, n]
    exact = sweep(corpus, orderings, budgets)
    mc = sweep(corpus, orderings, budgets, mode="mc", trials=20, seed=6)
    for exact_row, mc_row in zip(exact, mc):
        variants = orderings[exact_row.ranking]
        want = [sizes(rk, exact_row.budget) for rk in variants]
        assert exact_row.diversity == float(
            sum(map(partial(reference_exact_capture, corpus), want)) / len(variants)
        )
        assert mc_row.diversity == pytest.approx(
            sum(reference_mc(corpus, w, trials=20, seed=6) for w in want) / len(variants),
            abs=1e-12,
        )
    assert dict(zip(ids, make_plan(ours, 11).tolist())) == sizes(ours, 11)
    assert _scored(corpus, ours, 11).diversity == float(
        reference_exact_capture(corpus, sizes(ours, 11))
    )
    assert _scored(corpus, ours, 11, mode="mc", trials=20, seed=6).diversity == (
        reference_mc(corpus, sizes(ours, 11), trials=20, seed=6)
    )
