import hashlib
import json

import pytest

from locirr import harness
from locirr.decompose import Decomposition, validate_decomposition
from locirr.enumerate import CUBIC, SUBCUBIC, SUBCUBIC_MIN2, enumerate_trees
from locirr.graph import GraphError, parse_graph6, write_graph6
from locirr.harness import (
    BudgetExhausted,
    fig6_experiment,
    fig6_instance,
    find_tree_needing_3,
    run_campaign,
)
from locirr.irregularity import EdgeColoring, verify_coloring
from locirr.solver import COLORED, NOT_DECOMPOSABLE, chi_irr, element_uniform_search


class TestCampaign:
    def test_small_cubic_pass(self):
        report = run_campaign("cubic", 6, 3)
        assert report.passed
        assert report.per_n == {4: 1, 6: 2}
        assert sum(report.histogram.values()) == 3

    def test_k4_exceeds_bound_one(self):
        report = run_campaign("cubic", 4, 1)
        assert not report.passed
        assert report.exceeders == ["C~"]

    def test_one_solve_per_graph(self, monkeypatch):
        # an exceeder's index comes from the same solve that refutes the bound
        calls = []

        def counting_chi_irr(g, *args, **kwargs):
            calls.append(g)
            return chi_irr(g, *args, **kwargs)

        monkeypatch.setattr(harness, "chi_irr", counting_chi_irr)
        report = run_campaign("cubic", 8, 2)
        assert report.per_n == {4: 1, 6: 2, 8: 5}
        assert report.histogram == {2: 4, 3: 4}
        assert report.non_decomposable == {}
        assert report.exceeders == ["C~", "Eqlo", "GqHHsg", "GqHTOw"]
        graphs = report.tested + sum(report.non_decomposable.values())
        assert len(calls) == len({id(g) for g in calls}) == graphs

    def test_non_decomposable_counted_separately(self):
        report = run_campaign("all", 5, 3)
        # C5 and P4-like graphs at n in 4..5 are not decomposable
        assert sum(report.non_decomposable.values()) >= 2
        assert report.tested == sum(report.per_n.values())

    def test_constructive_method_agrees(self):
        exact = run_campaign("subcubic", 6, 4)
        constructive = run_campaign("subcubic", 6, 4, method="constructive")
        assert exact.passed and constructive.passed
        assert exact.per_n == constructive.per_n
        assert exact.non_decomposable == constructive.non_decomposable

    def test_deterministic_report(self):
        a = run_campaign("subcubic-min2", 6, 3).to_json()
        b = run_campaign("subcubic-min2", 6, 3).to_json()
        assert a == b

    def test_parallel_matches_serial(self):
        serial = run_campaign("all", 5, 3)
        parallel = run_campaign("all", 5, 3, jobs=2)
        assert serial.to_json() == parallel.to_json()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_max": -1},
            {"jobs": 0},
            {"jobs": -1},
            {"node_budget": -5},
            {"bound": 0},
            {"bound": -1},
            {"family": "nope"},
            # color_subcubic_4 needs maximum degree at most 3: rejected
            # up front, not at the first graph of degree 4 (n=5 for "all")
            {"family": "all", "n_max": 5, "bound": 4, "method": "constructive"},
            # a family is named; a filter object is not one
            {"family": SUBCUBIC},
        ],
    )
    def test_invalid_arguments_rejected(self, kwargs, tmp_path):
        # rejected before any level runs, so no checkpoint is written
        ckpt = tmp_path / "campaign.json"
        args = {"family": "cubic", "n_max": 6, "bound": 3, **kwargs}
        with pytest.raises(GraphError):
            run_campaign(checkpoint=str(ckpt), **args)
        assert not ckpt.exists()

    def test_checkpoint_resume_after_budget(self, tmp_path):
        ckpt = str(tmp_path / "campaign.json")
        with pytest.raises(BudgetExhausted):
            run_campaign("all", 5, 3, checkpoint=ckpt, node_budget=2)
        state = json.loads(open(ckpt).read())
        assert state["done_n"] < 5
        resumed = run_campaign("all", 5, 3, checkpoint=ckpt)
        fresh = run_campaign("all", 5, 3)
        assert resumed.to_json() == fresh.to_json()

    def test_budget_names_first_graph_in_graph6_order(self):
        # at n=4 the budget runs out on Cu, Cr, Cv and C~, in enumeration order
        for jobs in (1, 2):
            with pytest.raises(BudgetExhausted) as info:
                run_campaign("all", 4, 3, jobs=jobs, node_budget=5)
            assert str(info.value) == "campaign aborted at n=4: node budget hit on Cr"

    def test_budget_message_names_checkpoint(self, tmp_path):
        # the same message and checkpoint in this process and under a pool
        texts = []
        for jobs in (1, 2):
            ckpt = str(tmp_path / f"campaign-{jobs}.json")
            with pytest.raises(BudgetExhausted) as info:
                run_campaign("all", 4, 3, jobs=jobs, checkpoint=ckpt, node_budget=5)
            assert str(info.value) == (
                "campaign aborted at n=4: node budget hit on Cr; checkpoint holds n<4"
            )
            texts.append(open(ckpt).read())
            assert json.loads(texts[-1])["done_n"] == 3
        assert texts[0] == texts[1]

    def test_checkpoint_ignored_on_parameter_change(self, tmp_path):
        ckpt = str(tmp_path / "campaign.json")
        run_campaign("cubic", 6, 3, checkpoint=ckpt)
        report = run_campaign("cubic", 6, 2, checkpoint=ckpt)  # different bound
        assert report.per_n == {4: 1, 6: 2}

    def test_checkpoint_not_an_object_is_replaced(self, tmp_path):
        # JSON that is not a checkpoint object is treated like a checkpoint
        # of other parameters: ignored, then overwritten
        ckpt = tmp_path / "campaign.json"
        ckpt.write_text("[1, 2]")
        assert run_campaign("cubic", 4, 3, checkpoint=str(ckpt)).per_n == {4: 1}
        assert json.loads(ckpt.read_text())["done_n"] == 4

    def test_checkpoint_in_missing_directory_before_any_level(self, tmp_path, monkeypatch):
        def no_levels(n, flt):
            raise AssertionError(f"level n={n} enumerated")

        monkeypatch.setattr(harness, "enumerate_graphs", no_levels)
        ckpt = tmp_path / "missing" / "campaign.json"
        with pytest.raises(GraphError, match="missing"):
            run_campaign("cubic", 6, 3, checkpoint=str(ckpt))

    def test_families_are_the_enumerate_filters(self):
        assert harness.FAMILIES["cubic"] is CUBIC
        assert harness.FAMILIES["subcubic"] is SUBCUBIC
        assert harness.FAMILIES["subcubic-min2"] is SUBCUBIC_MIN2

    def test_histogram_csv(self):
        report = run_campaign("cubic", 6, 3)
        lines = report.histogram_csv().strip().splitlines()
        assert lines[0] == "colors,count"
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == 3


# sha256 of run_campaign(family, n_max, 3).to_json() as the per-n walks wrote it
CAMPAIGN_SHA256 = {
    ("subcubic", 9): "f313aea42f27e586b13824737a1193c6554ce1744ebd72c0e3f4d91d31238cb2",
    ("subcubic-min2", 11): "1cf01514e405f9e3f97c8b1f247370248c1e70b1fcaba15341735ef5794ed7a7",
    ("all", 7): "f60ce161eb3cdce6bc9c89f0f91c66e1965b39dc4acf70148407ab4cb397257b",
}
MIN2_ABORT = (
    '{"version": 1, "params": {"family": "subcubic-min2", "n_max": 11, "bound": 3,'
    ' "method": "exact", "filter": "GraphClassFilter(max_degree=3, min_degree=2,'
    ' connected=True, bipartite=False)"}, "done_n": 5, "per_n": {"4": 3, "5": 3},'
    ' "non_decomposable": {"3": 1, "5": 1}, "histogram": {"1": 1, "2": 3, "3": 2},'
    ' "exceeders": []}'
)


def _sha256(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


class TestOneWalk:
    """A campaign reads every level off one enumeration walk; its reports,
    budget aborts and checkpoints are those of one walk per n."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("family,n_max", sorted(CAMPAIGN_SHA256))
    def test_report_unchanged(self, family, n_max, jobs):
        assert _sha256(run_campaign(family, n_max, 3, jobs=jobs)) == CAMPAIGN_SHA256[family, n_max]

    @pytest.mark.parametrize("family,n_max", sorted(CAMPAIGN_SHA256))
    def test_resume_from_middle_level(self, family, n_max, tmp_path):
        # progress runs after a level's checkpoint is written, so stopping
        # there leaves a checkpoint that holds n <= 5
        ckpt = str(tmp_path / "campaign.json")

        def stop(n, count):
            if n == 5:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(family, n_max, 3, checkpoint=ckpt, progress=stop)
        assert json.loads(open(ckpt).read())["done_n"] == 5
        resumed = run_campaign(family, n_max, 3, checkpoint=ckpt)
        assert _sha256(resumed) == CAMPAIGN_SHA256[family, n_max]
        assert sorted(resumed.level_seconds) == list(range(6, n_max + 1))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_budget_abort_in_the_middle_of_a_walk(self, jobs, tmp_path):
        ckpt = str(tmp_path / "campaign.json")
        with pytest.raises(BudgetExhausted) as info:
            run_campaign("subcubic-min2", 11, 3, jobs=jobs, checkpoint=ckpt, node_budget=100)
        assert str(info.value) == (
            "campaign aborted at n=6: node budget hit on Eqlo; checkpoint holds n<6"
        )
        assert open(ckpt).read() == MIN2_ABORT
        resumed = run_campaign("subcubic-min2", 11, 3, jobs=jobs, checkpoint=ckpt)
        assert _sha256(resumed) == CAMPAIGN_SHA256["subcubic-min2", 11]

    def test_level_seconds(self, tmp_path):
        # one entry per level, timed between progress calls; neither the
        # JSON nor the checkpoint holds it
        ckpt = tmp_path / "campaign.json"
        seen = []
        report = run_campaign(
            "subcubic", 7, 3, checkpoint=str(ckpt), progress=lambda n, count: seen.append(n)
        )
        assert sorted(report.level_seconds) == seen == list(range(1, 8))
        assert all(s >= 0 for s in report.level_seconds.values())
        assert sum(report.level_seconds.values()) <= report.elapsed
        assert "level_seconds" not in report.to_json()
        assert "level_seconds" not in ckpt.read_text()


class TestTreeSearch:
    def test_witness(self):
        report = find_tree_needing_3(max_edges=9)
        t = report.witness
        assert report.chi == 3
        assert chi_irr(t, 2).status == "refuted"
        assert chi_irr(t, 3).k == 3
        assert report.refutation_nodes > 0
        assert max(t.degrees) <= 3  # the first such tree is subcubic

    def test_small_trees_need_at_most_two(self):
        for m in range(1, 7):
            for t in enumerate_trees(m + 1):
                res = chi_irr(t, max(1, t.m // 2))
                assert res.status == NOT_DECOMPOSABLE or res.k <= 2

    def test_budget_too_small(self):
        with pytest.raises(GraphError):
            find_tree_needing_3(max_edges=4)


class TestFig6:
    def test_instance_shape(self):
        g = fig6_instance()
        assert (g.n, g.m) == (22, 26)
        assert sorted(g.degrees).count(3) == 8
        assert sorted(g.degrees).count(2) == 14

    def test_both_witnesses(self):
        g = fig6_instance()
        report = fig6_experiment()
        # the witnesses are the first in enumeration order
        assert report.decompositions_scanned == 3
        refuted = Decomposition.from_json(g, report.refuted.decomposition_json)
        assert validate_decomposition(g, refuted, "strongly_pertinent").valid
        res = element_uniform_search(g, refuted, 3, enforce_property_ii=False)
        assert res.status == "refuted"

        good = Decomposition.from_json(g, report.two_colorable.decomposition_json)
        assert validate_decomposition(g, good, "strongly_pertinent").valid
        col = EdgeColoring.from_json(report.two_colorable.coloring_json)
        assert col.k == 2 and verify_coloring(g, col).valid
        for el in good.elements:
            assert len({col.colors[e] for e in el.edges}) == 1


class TestSerialization:
    def test_coloring_reverifies_on_reload(self):
        g = parse_graph6("C~")
        res = chi_irr(g, 3)
        col = EdgeColoring.from_json(res.coloring.to_json())
        assert verify_coloring(g, col).valid

    def test_graph6_stability(self):
        report = run_campaign("cubic", 6, 3)
        for n in report.per_n:
            assert n in (4, 6)
        assert write_graph6(parse_graph6("C~")) == "C~"
