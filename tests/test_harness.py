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
        with pytest.raises(BudgetExhausted) as info:
            run_campaign("all", 4, 3, node_budget=5)
        assert str(info.value) == "campaign aborted at n=4: node budget hit on Cr"

    def test_budget_message_names_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "campaign.json")
        with pytest.raises(BudgetExhausted) as info:
            run_campaign("all", 4, 3, checkpoint=ckpt, node_budget=5)
        assert str(info.value) == (
            "campaign aborted at n=4: node budget hit on Cr; checkpoint holds n<4"
        )
        assert json.loads(open(ckpt).read())["done_n"] == 3

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
