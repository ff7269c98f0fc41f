"""Bad strata, fixup, enumeration, composition, certification, and the
built-in undetermined-degree family.

Frozen expectations:
    - the two-symbols-through-x3 model has exactly one bad stratum V(x1,x2),
      repaired by exactly one blow-up, and certifies terminal at depth 3
    - the trivial 2-torsion pair on three coordinates has level-1 weighted
      discrepancies (1, 2, 1, 1) and infimum 1
    - the undetermined family reproduces b(E,X) = 1/3, e_F in {1, 3},
      b(F,X) = 1 - 1/e_F, exact additivity, and a(F,Y) = -1/3
"""

import copy
import dataclasses
import gc
import os
import pickle
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from brauer_terminal import resolution
from brauer_terminal.cli import _verdict
from brauer_terminal.discrepancy import (DiscrepancyReport, b_from_a,
                                         boundary_divisor, brauer_discrepancy,
                                         stratum_discrepancies)
from brauer_terminal.enumeration import _valuation_walk
import brauer_terminal.model as model_module
from brauer_terminal.model import IndeterminateDegreeError, Model, _RowWalk
from brauer_terminal.resolution import (CompositionCheck, NonterminationError,
                                        ResolutionTree,
                                        TerminalityCertificate,
                                        SideConditionSummary,
                                        UnsupportedTorsionError, certify,
                                        check_composition, enumerate_divisors,
                                        find_bad_strata, level_one_fixup,
                                        remark_model, run_remark)

from .oracles import toric_discrepancy
from .test_golden_enumeration import canonical_dump
from .test_row_walk import chart_walk


def bad_case():
    return Model.affine(2, ("x1", "x2", "x3"), [(0, 2, 1), (1, 2, 1)])


def count_children(monkeypatch):
    """Record the center of every blow-up whose children the walk builds."""
    calls = []
    children = _RowWalk.children

    def counted(walk, chart, center, *rest):
        calls.append(center)
        return children(walk, chart, center, *rest)

    monkeypatch.setattr(_RowWalk, "children", counted)
    return calls


class TestFindBadStrata:
    def test_unique_bad_stratum(self):
        assert find_bad_strata(bad_case()) == ((0, 1),)

    def test_paired_stratum_not_bad(self):
        # the symbol pairs x1 with x2, so the extracted divisor ramifies
        model = Model.affine(2, ("x1", "x2", "x3"), [(0, 1, 1)])
        assert find_bad_strata(model) == ()

    def test_degree_one_side_not_bad(self):
        # only x1 and x3 carry degree-2 covers; strata through x2 are fine
        model = Model.affine(2, ("x1", "x2", "x3"), [(0, 2, 1)])
        assert find_bad_strata(model) == ()

    def test_trivial_class_has_none(self):
        assert find_bad_strata(Model.affine(2, ("x1", "x2", "x3"))) == ()

    def test_one_coordinate_has_no_strata(self):
        # nothing to blow up, so nothing to certify either
        model = Model.affine(2, ("x1",))
        assert find_bad_strata(model) == ()
        cert = certify(model, depth=2)
        assert (cert.reports, cert.verdict, cert.complete) == (
            (), "indeterminate", True)

    def test_torsion_guard(self):
        model = Model.affine(3, ("x1", "x2", "x3"), [(0, 1, 1)])
        with pytest.raises(UnsupportedTorsionError):
            find_bad_strata(model)

    def test_indeterminate_degree_raises(self):
        model = Model.affine(2, ("x1", "x2", "x3"), [(0, 1, 1)],
                             extra_degrees={"x3": 2})
        chart = model.chart.children((0, 2))[1]
        grand = chart.children((0, 2))[0]
        with pytest.raises(IndeterminateDegreeError):
            find_bad_strata(grand)


class TestLevelOneFixup:
    def test_single_round_repairs(self):
        tree = level_one_fixup(bad_case())
        assert tree.rounds == 1
        assert len(tree.charts) == 2
        for leaf in tree.charts:
            assert find_bad_strata(leaf) == ()

    def test_tree_records_the_blow_up(self):
        tree = level_one_fixup(bad_case())
        assert tree.root == "r"
        assert len(tree.edges) == 2
        assert {e.exceptional for e in tree.edges} == {"E(1,1,0)"}
        assert all(e.center == ("x1", "x2") for e in tree.edges)
        assert set(tree.leaves) == {"r.1-2p1", "r.1-2p2"}

    def test_clean_model_passes_through(self):
        model = Model.affine(2, ("x1", "x2", "x3"), [(0, 1, 1)])
        tree = level_one_fixup(model)
        assert tree.rounds == 0
        assert tree.charts == (model.chart,)

    def test_round_budget(self):
        with pytest.raises(NonterminationError) as err:
            level_one_fixup(bad_case(), max_rounds=0)
        assert err.value.tree.rounds == 0

    @pytest.mark.parametrize("max_rounds", [0.5, 1.5])
    @pytest.mark.parametrize("entry", [level_one_fixup, certify])
    def test_integer_rounds_only(self, entry, max_rounds):
        # 0.5 would run one round and 1.5 act as 1
        with pytest.raises(TypeError):
            entry(bad_case(), max_rounds=max_rounds)

    def test_returns_the_tree_with_its_leaf_charts(self):
        tree = level_one_fixup(bad_case())
        assert isinstance(tree, ResolutionTree)
        assert tree.rounds == 1
        assert tree.leaves == tuple(c.chart_id for c in tree.charts) == (
            "r.1-2p1", "r.1-2p2")

    def test_partial_tree_holds_the_finished_leaves(self, monkeypatch):
        # the fixup finishes a blow-up's charts together on every torsion-2
        # pair of 3 to 5 slots tried, so here the second chart of the
        # bad-case blow-up reports the root's bad stratum again: a budget
        # of one round stops there, with the first chart finished
        real = resolution.find_bad_strata
        monkeypatch.setattr(
            resolution, "find_bad_strata",
            lambda chart: ((0, 1),) if chart.chart_id == "r.1-2p2"
            else real(chart))
        model = bad_case()
        with pytest.raises(NonterminationError) as err:
            level_one_fixup(model, max_rounds=1)
        partial = err.value.tree
        assert partial.rounds == 1
        assert len(partial.edges) == 2
        assert partial.charts == (model.chart.children((0, 1))[0],)
        assert partial.leaves == ("r.1-2p1",)


class TestEnumerateDivisors:
    def test_trivial_level_one(self):
        enum = enumerate_divisors(Model.affine(2, ("x1", "x2", "x3")), 1)
        weighted = [r.entries[0].weighted for r in enum.reports]
        assert weighted == [1, 2, 1, 1]
        assert min(e.weighted for r in enum.reports for e in r.entries) == 1
        assert enum.complete
        assert enum.indeterminate_divisors == ()

    def test_matches_toric_oracle_layer_two(self):
        model = bad_case()
        boundary = [Fraction(1, 2)] * 3
        enum = enumerate_divisors(model, 2)
        assert enum.complete
        for report in enum.reports:
            valuation = tuple(
                int(part) for part in report.divisor_id[2:-1].split(",")
            )
            expected = toric_discrepancy(valuation, boundary)
            assert report.a == expected, (
                f"{report.divisor_id}: telescoped {report.a}, "
                f"toric {expected}"
            )

    def test_duplicate_reported_once(self):
        fixed = level_one_fixup(bad_case())
        enum = enumerate_divisors(fixed.charts, 1)
        ids = [r.divisor_id for r in enum.reports]
        assert len(ids) == len(set(ids))
        # both leaves can blow up the shared strict strata
        assert "E(0,1,1)" in ids

    def test_depth_zero_is_empty(self):
        enum = enumerate_divisors(bad_case(), 0)
        assert enum.reports == ()
        assert enum.complete

    def test_probe_budget_marks_incomplete(self):
        enum = enumerate_divisors(bad_case(), 3, max_probes=5)
        assert not enum.complete
        assert enum.probes == 5

    @pytest.mark.parametrize("walk,torsion", [
        (enumerate_divisors, 3),
        (lambda base, depth, max_probes: _valuation_walk(
            [base.chart], depth, max_probes), 2),
    ], ids=["row-walk", "valuation-walk"])
    def test_budget_zero_cuts_a_walk_without_centers(self, walk, torsion):
        # a 1-slot chart has no centers, so no budget is ever spent; a
        # budget of 0 still leaves the walk incomplete, and one of 1 does not
        model = Model.affine(torsion, ("x1",))
        assert [walk(model, 2, max_probes=k).complete for k in (0, 1)] == [
            False, True]

    def test_every_budget_cut_is_a_prefix_of_the_full_walk(self):
        # remark at depth 3 probes 4, 36 and 324 centers, 4 per chart: every
        # cut, at a chart boundary or inside a chart, keeps the full walk's
        # first side checks, and the walk completes only with every probe;
        # every eleventh cut also equals the reference chart walk's
        model = remark_model()
        full = enumerate_divisors(model, 3)
        unread = len(pickle.dumps(full))
        assert (full.probes, full.complete) == (364, True)
        # the checks are a tuple, built once
        assert type(full.side_checks) is tuple
        assert full.side_checks is full.side_checks
        # and kept out of a pickle: a round trip rebuilds them
        assert len(pickle.dumps(full)) == unread
        again = pickle.loads(pickle.dumps(full))
        assert again == full and hash(again) == hash(full)
        assert "side_checks" not in vars(again)
        assert again.side_checks == full.side_checks
        # a cut result pickles, compares and hashes on its fields
        cut = enumerate_divisors(model, 3, max_probes=100)
        for other in (enumerate_divisors(model, 3, max_probes=100),
                      pickle.loads(pickle.dumps(cut))):
            assert other == cut and hash(other) == hash(cut)
            assert other.side_checks == cut.side_checks
        assert cut != full
        for k in range(366):
            cut = enumerate_divisors(model, 3, max_probes=k)
            assert cut.side_checks == full.side_checks[:k], k
            assert (cut.probes, cut.complete) == (min(k, 364), k >= 364), k
            if k % 11 == 0:
                assert canonical_dump(cut) == canonical_dump(
                    chart_walk([model.chart], 3, k)), k

    @pytest.mark.parametrize("depth,probes", [(1, 4), (2, 40), (3, 364)])
    def test_last_level_builds_no_children(self, monkeypatch, depth, probes):
        # only charts that get expanded are built: one blow-up's children
        # per probe made before the last level, none for the last level's
        before = enumerate_divisors(bad_case(), depth - 1).probes
        calls = count_children(monkeypatch)
        enum = enumerate_divisors(bad_case(), depth)
        assert len(calls) == before
        assert (enum.probes, len(enum.side_checks), enum.complete) == (
            probes, probes, True)

    def test_budget_cut_builds_no_unprobed_children(self, monkeypatch):
        # dim 4 has 11 centers and 28 children per chart: levels of 11,
        # 308 and 8624 probes. A budget of 3001 ends inside level 2, so no
        # chart below it is probed, and a deeper walk builds none of them;
        # once the budget has emptied the frontier, the walk stops.
        model = Model.affine(2, ("x1", "x2", "x3", "x4"),
                             [(0, 2, 1), (1, 3, 1)])
        calls = count_children(monkeypatch)
        runs = []
        for depth in (3, 6, 10**9):
            calls.clear()
            start = time.perf_counter()
            runs.append((enumerate_divisors(model, depth, max_probes=3001),
                         len(calls)))
            seconds = time.perf_counter() - start
        assert seconds < 5
        assert runs[0] == runs[1] == runs[2]
        assert (runs[0][0].probes, runs[0][0].complete) == (3001, False)
        # a budget that ends exactly with level 2 completes depth 3 only:
        # the children that depth 4 skips would have been probed next
        full = enumerate_divisors(model, 3, max_probes=8943)
        cut = enumerate_divisors(model, 4, max_probes=8943)
        assert (full.probes, full.complete) == (8943, True)
        assert (cut.probes, cut.complete) == (8943, False)
        assert cut.reports == full.reports

    @pytest.mark.parametrize("bases,depth,steps,built,probes,reported", [
        (lambda: level_one_fixup(bad_case()).charts, 4, 2780, 413, 6560, 413),
        (lambda: Model.affine(2, ("x1", "x2", "x3", "x4"),
                              [(0, 2, 1), (1, 3, 1)]), 3, 4169, 365, 8943,
         365),
        (remark_model, 4, 1600, 220, 3280, 214),
    ], ids=["bad-case-fixed-depth4", "x1x3+x2x4-depth3", "remark-depth4"])
    def test_each_step_computed_once(self, monkeypatch, bases, depth, steps,
                                     built, probes, reported):
        # one step per distinct chart state and center on each level,
        # except the centers off a child's pivot, whose steps the child
        # takes from its parent (the counts were 3704, 6545 and 2132 before
        # that); one report per divisor plus one per merge that narrows
        # candidates (none in the torsion-2 cases); probes still count
        # every chart, as before steps were reused. Steps are counted where
        # the walk's kernel builds them, a chart state's at once.
        base = bases()
        calls = {"step": 0, "report": 0}
        step = model_module._RowStep
        from_degree = DiscrepancyReport.from_degree.__func__

        def counted_step(*args):
            calls["step"] += 1
            return step(*args)

        def counted_report(cls, **kwargs):
            calls["report"] += 1
            return from_degree(cls, **kwargs)

        monkeypatch.setattr(model_module, "_RowStep", counted_step)
        monkeypatch.setattr(DiscrepancyReport, "from_degree",
                            classmethod(counted_report))
        enum = enumerate_divisors(base, depth)
        assert (calls["step"], calls["report"], enum.probes) == (
            steps, built, probes)
        assert len(enum.reports) == reported and enum.complete

    def test_registry_must_be_shared(self):
        with pytest.raises(ValueError):
            enumerate_divisors([bad_case(), bad_case()], 1)
        # the same for charts: those of two roots never share a walk
        with pytest.raises(ValueError, match="one root"):
            enumerate_divisors([bad_case().chart,
                                bad_case().chart.children((0, 1))[0]], 1)

    def test_remark_family_flagged(self):
        enum = enumerate_divisors(remark_model(), 2)
        assert "E(2,0,1)" in enum.indeterminate_divisors
        flagged = next(r for r in enum.reports
                       if r.divisor_id == "E(2,0,1)")
        assert flagged.degree.candidates == (1, 3)
        assert flagged.a == 0

    @pytest.mark.parametrize("depth,max_probes", [(2, 10.5), (2.0, 10)])
    def test_integer_arguments_only(self, depth, max_probes):
        with pytest.raises(TypeError):
            enumerate_divisors(remark_model(), depth, max_probes=max_probes)

    @pytest.mark.parametrize("base,depth,message", [
        (list, 1, "at least one base model"),
        (remark_model, -1, "depth cannot be negative"),
    ], ids=["no-bases", "negative-depth"])
    def test_bad_arguments_rejected(self, base, depth, message):
        with pytest.raises(ValueError, match=message):
            enumerate_divisors(base(), depth)


class TestCheckComposition:
    def _remark_route(self, lam):
        return check_composition(remark_model(), [((0, 2), 1), ((0, 2), 0)],
                                 lam=lam)

    def test_remark_at_zero_passes_with_named_failure(self):
        check = self._remark_route(Fraction(0))
        assert check.reports[-1].divisor_id == "E(2,0,1)"
        assert [r.divisor_id for r in check.reports] == ["E(1,0,1)", "E(2,0,1)"]
        assert check.passed
        names = {c.name: c for c in check.side_conditions}
        one_step = names["a(E(2,0,1),Y,Delta_Y) >= 0"]
        assert one_step.value == Fraction(-1, 3)
        assert one_step.ok is False
        intermediate = names["b(E(1,0,1),X) >= 0"]
        assert intermediate.value == Fraction(1, 3)
        assert intermediate.ok is True

    def test_remark_at_third_fails_on_open_candidate(self):
        check = self._remark_route(Fraction(1, 3))
        assert not check.passed
        by_e = {c.e: c.b >= check.lam for c in check.reports[-1].entries}
        assert by_e == {1: False, 3: True}
        premise = check.premises[0]
        assert premise.value == Fraction(1, 3)
        assert premise.ok is True

    def test_fields_hold_no_copy_of_the_last_report(self):
        assert [f.name for f in dataclasses.fields(CompositionCheck)] == [
            "lam", "premises", "side_conditions", "passed", "reports"]

    def test_passed_is_every_b_at_least_lam(self):
        final = self._remark_route(Fraction(0)).reports[-1]
        least = min(c.b for c in final.entries)
        for lam, passed in ((least, True), (least + Fraction(1, 10**6), False)):
            check = self._remark_route(lam)
            assert check.passed is passed
            assert passed == all(c.b >= lam
                                 for c in check.reports[-1].entries)

    @pytest.mark.parametrize("lam", [0.1, "0"])
    def test_lam_is_rational(self, lam):
        # 0.1 would be kept as 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            self._remark_route(lam)

    def test_integer_lam_becomes_a_fraction(self):
        check = self._remark_route(0)
        assert type(check.lam) is Fraction
        assert check == self._remark_route(Fraction(0))

    def test_exceptional_premises_only(self):
        check = self._remark_route(Fraction(0))
        assert [p.name for p in check.premises] == ["b(E(1,0,1),X) >= 0"]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            check_composition(bad_case(), [])

    def test_bad_child_index(self):
        with pytest.raises(ValueError):
            check_composition(bad_case(), [((0, 1), 9)])


class TestCallerErrors:
    """The errors callers see on bad centers and undetermined degrees."""

    @pytest.mark.parametrize("center", [(0,), (0, 3), (1, 1), ()])
    def test_bad_centers_rejected(self, center):
        with pytest.raises(ValueError):
            brauer_discrepancy(bad_case(), center)
        with pytest.raises(ValueError):
            check_composition(bad_case(), [((0, 1), 0), (center, 0)])

    @pytest.mark.parametrize("pick", [2, 9, -1])
    def test_child_index_out_of_range(self, pick):
        with pytest.raises(ValueError, match="child index"):
            check_composition(bad_case(), [((0, 1), 0), ((0, 1), pick)])

    def test_every_undetermined_divisor_listed(self):
        chart = remark_model().chart
        for center, pick in (((0, 2), 1), ((0, 2), 0), ((0, 2), 1)):
            chart = chart.children(center)[pick]
        calls = (boundary_divisor, stratum_discrepancies,
                 lambda c: brauer_discrepancy(c, (0, 1)),
                 lambda c: check_composition(c, [((0, 1), 0)]),
                 lambda c: enumerate_divisors(c, 1))
        for call in calls:
            with pytest.raises(IndeterminateDegreeError) as err:
                call(chart)
            assert err.value.divisor_ids == ("E(2,0,1)", "E(3,0,2)")


class TestCertify:
    def test_large_torsion_certifies_at_once(self):
        # the torsion's primality decides nothing here, so it is not tested,
        # and from depth 2 on candidate degrees trial-divide only the
        # extra's part; trial division of the torsion up to its square root
        # would not return
        code = ("from brauer_terminal import Model, certify\n"
                "model = Model.affine(10**18 + 9, ('x1', 'x2', 'x3'),"
                " [(0, 1, 1)], extra_degrees={'x3': 2})\n"
                "for depth in (1, 2, 3):\n"
                "    cert = certify(model, depth)\n"
                "    print(cert.verdict, len(cert.reports))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parents[1] / "src"),
            env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=5)
        assert result.stdout == "".join(
            f"terminal-certified {n}\n" for n in (4, 16, 58)), result.stderr

    def test_bad_case_lifecycle(self):
        cert = certify(bad_case(), depth=3)
        assert cert.verdict == "terminal-certified"
        assert cert.bad_strata == (("x1", "x2"),)
        assert cert.fixup_rounds == 1
        assert cert.min_weighted == 1
        assert cert.level1_terminal
        assert cert.complete
        assert cert.tree is not None

    def test_used_model_and_its_results_pickle(self):
        # a model's root chart and walk are memos: a pickle or a copy holds
        # the fields alone and rebuilds them on first use, so a used model,
        # its charts, a fixup tree and a certificate round trip
        model = bad_case()
        cert = certify(model, depth=3)
        chart = model.chart.children((0, 1))[1]
        assert "walk" in vars(model)
        again = pickle.loads(pickle.dumps(model))
        assert vars(again) == {"labels": model.labels, "torsion": 2,
                               "matrix": model.matrix, "extras": ()}
        assert again.chart.model is again
        assert certify(again, depth=3) == cert
        child = pickle.loads(pickle.dumps(chart))
        assert child[1:] == chart[1:] and child.model is not model
        assert child.model.matrix == model.matrix
        copied = pickle.loads(pickle.dumps(cert))
        assert copied == cert
        tree = copied.tree
        assert (tree.root, tree.edges, tree.leaves, tree.rounds) == (
            cert.tree.root, cert.tree.edges, cert.tree.leaves,
            cert.tree.rounds)
        assert [c[1:] for c in tree.charts] == [
            c[1:] for c in cert.tree.charts]
        # one model behind every chart of the copy, as behind the original's
        assert len({id(c.model) for c in tree.charts}) == 1
        assert tree.charts[0].model is not model
        shallow = copy.copy(model)
        assert shallow.chart.model is shallow

    def test_no_fixup_reports_bad_stratum(self):
        cert = certify(bad_case(), depth=1, fixup=False)
        assert cert.verdict == "bad-stratum-found"
        assert cert.min_weighted == 0
        assert cert.min_witness == "E(1,1,0)"
        assert cert.fixup_rounds == 0
        assert cert.tree is None

    def test_clean_model_certifies_without_fixup_rounds(self):
        model = Model.affine(2, ("x1", "x2", "x3"), [(0, 1, 1)])
        cert = certify(model, depth=2)
        assert cert.verdict == "terminal-certified"
        assert cert.bad_strata == ()
        assert cert.fixup_rounds == 0

    def test_remark_model_is_indeterminate(self):
        cert = certify(remark_model(), depth=2)
        assert cert.verdict == "indeterminate"
        assert "E(2,0,1)" in cert.indeterminate_divisors
        assert cert.min_weighted == 0

    def test_incomplete_enumeration_never_certifies(self):
        cert = certify(bad_case(), depth=3, max_probes=10)
        assert not cert.complete
        assert cert.verdict == "indeterminate"

    def test_certificate_invariant_enforced(self):
        summary = SideConditionSummary(True, True, True, ())
        with pytest.raises(ValueError):
            TerminalityCertificate(
                level_checked=1, verdict="terminal-certified",
                min_weighted=Fraction(0), min_witness="E",
                level1_terminal=False, side_conditions=summary,
                bad_strata=(), indeterminate_divisors=(), reports=(),
                complete=True, fixup_rounds=0,
            )

    @pytest.mark.parametrize("verdict,complete,message", [
        ("certified", True, "unknown verdict 'certified'"),
        ("terminal-certified", False, "incomplete enumeration"),
    ], ids=["unknown-verdict", "incomplete"])
    def test_certificate_verdict_checked(self, verdict, complete, message):
        summary = SideConditionSummary(True, True, True, ())
        with pytest.raises(ValueError, match=message):
            TerminalityCertificate(
                level_checked=1, verdict=verdict,
                min_weighted=Fraction(1), min_witness="E",
                level1_terminal=True, side_conditions=summary,
                bad_strata=(), indeterminate_divisors=(), reports=(),
                complete=complete, fixup_rounds=0,
            )

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            certify(bad_case(), depth=0)

    @pytest.mark.parametrize("fix", [
        lambda: certify(bad_case(), depth=1),
        lambda: level_one_fixup(bad_case()),
    ], ids=["certify", "level_one_fixup"])
    def test_root_scanned_once(self, monkeypatch, fix):
        # the root, then the two charts of its one blow-up: certify hands
        # its root scan to the fixup
        scanned = []
        scan = resolution.find_bad_strata

        def counted(pair):
            scanned.append(model_module.as_chart(pair).chart_id)
            return scan(pair)

        monkeypatch.setattr(resolution, "find_bad_strata", counted)
        fix()
        assert scanned == ["r", "r.1-2p1", "r.1-2p2"]

    @pytest.mark.parametrize("model,depth", [
        (bad_case, 3),
        (remark_model, 3),
        (lambda: Model.affine(3, ("x1", "x2", "x3", "x4"), [(0, 1, 1)],
                              {"x4": 3}), 2),
    ], ids=["bad-case", "remark", "x1x2+x4^3"])
    def test_warm_call_leaves_no_cyclic_garbage(self, model, depth):
        # what a warm certify allocates is freed by reference counts alone,
        # so the cyclic collector finds nothing once the result is dropped
        model = model()
        certify(model, depth)
        gc.collect()
        gc.disable()
        try:
            cert = certify(model, depth)
            assert cert.reports
            del cert
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("model,depth", [
        (lambda: Model.affine(2, ("x1", "x2"), [(0, 1, 1)]), 12),
        (remark_model, 4),
    ], ids=["two-slot-valuation-walk", "remark-row-walk"])
    def test_reports_share_entries(self, model, depth):
        # one entries tuple per distinct (a, candidates), on both walks
        reports = certify(model(), depth).reports
        keys = {(r.a, r.degree.candidates) for r in reports}
        assert len(reports) > len(keys)
        assert len({id(r.entries) for r in reports}) == len(keys)

    @pytest.mark.parametrize("model,depth,max_probes", [
        (lambda: Model.affine(2, ("x1", "x2"), [(0, 1, 1)]), 3, 2.5),
        (remark_model, 2, 10.5),
        (remark_model, 2.0, 10),
    ], ids=["valuation-walk-probes", "row-walk-probes", "depth"])
    def test_integer_arguments_only(self, model, depth, max_probes):
        # both walks refuse a float budget alike
        with pytest.raises(TypeError):
            certify(model(), depth, max_probes=max_probes)


class TestRunRemark:
    def test_is_the_composition_audit(self):
        check = run_remark()
        assert type(check) is CompositionCheck
        assert [r.divisor_id for r in check.reports] == ["E(1,0,1)", "E(2,0,1)"]
        assert check.passed

    def test_boundary(self):
        assert boundary_divisor(remark_model()) == (
            ("x1", Fraction(2, 3)),
            ("x2", Fraction(2, 3)),
            ("x3", Fraction(2, 3)),
        )

    def test_first_blow_up(self):
        first = run_remark().reports[0]
        assert first.divisor_id == "E(1,0,1)"
        assert first.entries[0].b == Fraction(1, 3)
        assert first.degree.value == 3

    def test_second_blow_up_candidates(self):
        check = run_remark()
        final = check.reports[-1]
        assert final.degree.candidates == (1, 3)
        assert final.degree.monomial_order == 3
        assert final.a == 0
        assert check.side_conditions[-1].value == Fraction(-1, 3)

    def test_candidate_rows(self):
        by_e = {c.e: c for c in run_remark().reports[-1].entries}
        assert by_e[1].b == 0
        assert by_e[1].weighted == 0
        assert by_e[3].b == Fraction(2, 3)
        assert by_e[3].weighted == 2

    def test_additivity_exact_per_candidate(self):
        check = run_remark()
        b_e = check.reports[0].entries[0].b
        a_on_y = check.side_conditions[-1].value
        for candidate in check.reports[-1].entries:
            b_on_y = b_from_a(a_on_y, candidate.e)
            assert candidate.b == b_on_y + b_e, (
                f"b(F,X) != b(F,Y) + b(E,X) at e={candidate.e}"
            )

    def test_verdict_indeterminate(self):
        check = run_remark()
        assert _verdict(check.reports[-1:]) == "indeterminate"
        assert check.passed
