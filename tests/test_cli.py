"""Job-document CLI: reports, budgets, exit codes, reproducibility."""
from __future__ import annotations

import ast
import contextlib
import copy
import dataclasses
import io
import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthtight import __version__
from growthtight import automata, cli, products, tree, words
from growthtight.errors import InternalInvariantError
from growthtight.products import LpProductSpec
from growthtight.quotients import KINDS, minimal_section
from growthtight.reports import canonical_json, render_table
from growthtight.tree import ghat_membership_exact, shorten, shorten_threshold
from growthtight.words import Alphabet, ReducedWord, enumerate_sphere, format_word, parse_word

import oracles


def write_job(tmp_path, command: str, params: dict, budgets: dict | None = None, **extra):
    job = {"schema": "growthtight/job-v1", "command": command, "params": params}
    if budgets is not None:
        job["budgets"] = budgets
    job.update(extra)
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(job))
    return path


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_from(out: str) -> dict:
    # stdout is: table, then the canonical JSON document starting at '{'
    return json.loads(out[out.index("{") :])


def test_cli_imports_no_private_name_from_the_package():
    # the CLI is job plumbing: the library's underscore names stay inside it
    source = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        (node.module, alias.name)
        for node in ast.walk(source)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


class TestRunBasics:
    def test_count_job_round_trip(self, tmp_path, capsys):
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 3})
        code, out, err = run_cli(capsys, "run", str(job))
        assert code == 0 and err == ""
        rep = report_from(out)
        assert rep["schema"] == "growthtight/report-v1"
        assert rep["tool"] == {"name": "growthtight", "version": __version__}
        assert rep["results"]["spheres"] == [1, 4, 12, 36]
        assert rep["results"]["balls"] == [1, 5, 17, 53]
        assert rep["job"]["budgets"]["r_max"] == 3
        assert "sphere" in out.splitlines()[0]

    def test_quiet_leaves_pure_json(self, tmp_path, capsys):
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 2})
        code, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        assert code == 0
        assert json.loads(out)["results"]["balls"] == [1, 5, 17]

    def test_out_file_and_rerun_is_byte_identical(self, tmp_path, capsys):
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 4})
        first = tmp_path / "first.json"
        assert run_cli(capsys, "run", str(job), "--out", str(first))[0] == 0
        # replay the resolved job embedded in the report
        embedded = json.loads(first.read_text())["job"]
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(embedded))
        second = tmp_path / "second.json"
        assert run_cli(capsys, "run", str(replay), "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_csv_export(self, tmp_path, capsys):
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 3})
        csv = tmp_path / "counts.csv"
        run_cli(capsys, "run", str(job), "--csv", str(csv), "--quiet")
        assert csv.read_text() == "r,sphere,ball\n0,1,1\n1,4,5\n2,12,17\n3,36,53\n"

    def test_csv_path_from_the_job_document(self, tmp_path, capsys):
        csv = tmp_path / "from_job.csv"
        job = write_job(
            tmp_path, "count", {"rank": 2}, {"r_max": 2}, output={"csv": str(csv)}
        )
        run_cli(capsys, "run", str(job), "--quiet")
        assert csv.read_text().startswith("r,sphere,ball\n")

    def test_flag_overrides_land_in_the_report(self, tmp_path, capsys):
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 3})
        _, out, _ = run_cli(capsys, "run", str(job), "--quiet", "--r-max", "5")
        rep = json.loads(out)
        assert rep["job"]["budgets"]["r_max"] == 5
        assert len(rep["results"]["spheres"]) == 6

    def test_default_budgets_are_resolved(self, tmp_path, capsys):
        job = write_job(tmp_path, "count", {"rank": 2})
        _, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        budgets = json.loads(out)["job"]["budgets"]
        assert budgets == {"r_max": 10, "tol": 1e-9, "cutoff": 14}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"growthtight {__version__}"


class TestInProcessReuse:
    """main() parses with one parser per process; no call's flags or errors
    carry over to the next."""

    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 2})
        code, out, _ = run_cli(capsys, "run", str(job), "--r-max", "3", "--quiet")
        assert code == 0 and json.loads(out)["job"]["budgets"]["r_max"] == 3
        code, out, _ = run_cli(capsys, "run", str(job))
        assert code == 0
        assert "sphere" in out.splitlines()[0]
        rep = report_from(out)
        assert rep["job"]["budgets"]["r_max"] == 2
        assert rep["results"]["spheres"] == [1, 4, 12]

    def test_parse_error_then_valid_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--r-max", "three"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 1})
        code, out, err = run_cli(capsys, "run", str(job), "--quiet")
        assert code == 0 and err == ""
        assert json.loads(out)["results"]["spheres"] == [1, 4]


class TestCommands:
    def test_exponent_report(self, tmp_path, capsys):
        job = write_job(tmp_path, "exponent", {"rank": 2}, {"r_max": 10})
        _, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        res = json.loads(out)["results"]
        assert res["spectral"]["lower"] <= 1.0986122886681098 <= res["spectral"]["upper"]
        assert res["subadditivity_b"] == 0.0

    def test_avoid_with_inverses(self, tmp_path, capsys):
        job = write_job(
            tmp_path, "avoid", {"rank": 2, "factors": ["a b"]}, {"r_max": 6}
        )
        _, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        res = json.loads(out)["results"]
        assert res["spheres"][:3] == [1, 4, 11]
        assert res["bracket"]["upper"] < 1.0986
        assert res["with_inverses"]["bracket"]["upper"] < res["bracket"]["upper"]

    def test_avoid_sweep(self, tmp_path, capsys):
        job = write_job(tmp_path, "avoid", {"rank": 2, "sweep": {"max_len": 2}})
        _, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        res = json.loads(out)["results"]
        assert res["languages"] == 16
        assert res["all_strictly_below"] is True
        assert res["worst"]["margin"] > 0
        assert len(res["entries"]) == 16

    def test_ghat_with_shorten_sweep(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            "ghat",
            {"rank": 2, "h": "a b", "m": 4, "shorten_sweep": {"g_max": 6}},
            {"r_max": 8},
        )
        _, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        res = json.loads(out)["results"]
        assert res["spheres"][:5] == [1, 4, 12, 36, 106]
        assert res["shorten_threshold"] == 6
        assert res["gap"]["strict"] is True
        assert res["divergence"]["passed"] is True
        sweep = res["shorten_sweep"]
        assert sweep["K"] == 6
        assert sweep["checked"] == 1457
        assert sweep["failures"] == []
        assert sweep["in_ghat"] + sweep["shortened"] == sweep["checked"]

    def test_ghat_strictness_is_decided_by_sign(self, tmp_path, capsys):
        # a spectral-workload-shaped job, |h| = 12 and m = 2|h| + 2: both
        # brackets are spectral, so the certified margin of about 5e-13,
        # far below 10 tol, already proves that Ghat grows strictly slower
        job = write_job(tmp_path, "ghat", {"rank": 2, "h": "a a a b b b a a b- a b b", "m": 26})
        _, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        gap = json.loads(out)["results"]["gap"]
        assert 0 < gap["margin"] < 1e-12
        assert gap["strict"] is True and gap["certified"] is True

    def test_product_duality(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            "product",
            {"factors": [{"rank": 2}, {"rank": 2}], "p": "inf"},
            {"r_max": 12},
        )
        _, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        res = json.loads(out)["results"]
        assert res["predicted"] == pytest.approx(2 * 1.0986122886681098, abs=1e-6)
        assert res["contains_predicted"] is True

    def test_quotient_with_structure_check(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            "quotient",
            {
                "factors": [{"rank": 2}, {"rank": 2}],
                "p": 1,
                "oracle": {
                    "kind": "homomorphism-to-integers",
                    "coefficients": [[1, 1], [1, -1]],
                },
                "check": {"h": ["a b", "b a-"], "K": 6},
            },
            {"r_max": 4},
        )
        _, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        res = json.loads(out)["results"]
        assert res["balls"] == [1, 3, 5, 7, 9]
        assert res["structure_check"]["passed"] is True
        assert res["structure_check"]["checked"] == 9

    def test_tightness_verdicts(self, tmp_path, capsys):
        base = {
            "factors": [{"rank": 2}, {"rank": 2}],
            "oracle": {"kind": "factor-kernel", "kill": [1]},
        }
        tight = write_job(tmp_path, "tightness", {**base, "p": "inf"})
        _, out, _ = run_cli(capsys, "run", str(tight), "--quiet")
        assert json.loads(out)["results"]["verdict"] == "tight"
        loose = tmp_path / "loose.json"
        loose.write_text(
            json.dumps(
                {
                    "schema": "growthtight/job-v1",
                    "command": "tightness",
                    "params": {**base, "p": 1},
                }
            )
        )
        _, out, _ = run_cli(capsys, "run", str(loose), "--quiet")
        res = json.loads(out)["results"]
        assert res["verdict"] == "not-tight"
        assert res["overlap_gap"] <= 1e-6

    TIGHTNESS_INF = {
        "factors": [{"rank": 2}, {"rank": 3}],
        "p": "inf",
        "oracle": {"kind": "factor-kernel", "kill": [1]},
    }

    @pytest.mark.parametrize("command,params", [
        ("tightness", TIGHTNESS_INF),
        ("exponent", {"rank": 2}),
        ("product", {"factors": [{"rank": 2}, {"rank": 3}], "p": "inf"}),
    ], ids=["tightness", "exponent", "product"])
    def test_tol_below_float_resolution_is_invalid(self, tmp_path, capsys, command, params):
        job = write_job(tmp_path, command, params, {"r_max": 4})
        code, out, err = run_cli(capsys, "run", str(job), "--quiet", "--tol", "1e-14")
        assert code == 2 and out == "" and "below float resolution" in err

    def test_tightness_brackets_the_factors_at_the_job_tol_below_1e9(
        self, tmp_path, capsys, monkeypatch
    ):
        # at the default tol 0.08, or any tol >= 1e-9, the factors get
        # perron_root's default tol 1e-9, so delta_G does not depend on tol;
        # a smaller tol reaches perron_root and can only narrow delta_G
        tols = []
        real = automata.perron_root

        def recorded(aut, tol):
            tols.append(tol)
            return real(aut, tol)

        # Language.bracket calls perron_root by its module-global name
        monkeypatch.setattr(automata, "perron_root", recorded)
        brackets = []
        for tol in (0.08, 1e-3, 1e-9, 1e-12):
            job = write_job(tmp_path, "tightness", self.TIGHTNESS_INF, {"r_max": 4, "tol": tol})
            code, out, _ = run_cli(capsys, "run", str(job), "--quiet")
            assert code == 0
            brackets.append(json.loads(out)["results"]["delta_G"])
        assert tols == [1e-9] * 6 + [1e-12] * 2
        assert brackets[0] == brackets[1] == brackets[2]
        coarse, fine = brackets[2], brackets[3]
        assert coarse["lower"] <= fine["lower"] <= fine["upper"] <= coarse["upper"]

    def test_product_and_tightness_bracket_each_rank_once(self, tmp_path, capsys, monkeypatch):
        # factors of one rank share the free group's automaton and bracket,
        # and a ghat job builds and brackets Ghat and the free group once each
        ranks, built, counted = [], [], []
        real_root, real_build, real_count = (
            automata.perron_root, automata.avoid_factors, automata.count_lengths
        )

        def bracketed(aut, *args):
            ranks.append(aut.alphabet.rank)
            return real_root(aut, *args)

        def build(alphabet, forbidden):
            built.append((alphabet.rank, len(forbidden)))
            return real_build(alphabet, forbidden)

        def count(aut, r_max):
            counted.append(aut.alphabet.rank)
            return real_count(aut, r_max)

        monkeypatch.setattr(automata, "perron_root", bracketed)
        monkeypatch.setattr(automata, "avoid_factors", build)
        monkeypatch.setattr(automata, "count_lengths", count)
        factors = [{"rank": 2}, {"rank": 3}, {"rank": 2}]
        product = write_job(tmp_path, "product", {"factors": factors, "p": "inf"}, {"r_max": 6})
        code, out, _ = run_cli(capsys, "run", str(product), "--quiet")
        brackets = json.loads(out)["results"]["factor_brackets"]
        assert code == 0 and ranks == [2, 3] and brackets[0] == brackets[2] != brackets[1]
        assert built == [(2, 0), (3, 0)] and counted == [2, 3]
        ranks.clear()
        built.clear()
        params = {"factors": factors, "p": "inf", "oracle": {"kind": "factor-kernel", "kill": [2]}}
        tightness = write_job(tmp_path, "tightness", params)
        code, out, _ = run_cli(capsys, "run", str(tightness), "--quiet")
        assert code == 0 and ranks == [2, 3] and built == [(2, 0), (3, 0)]
        ranks.clear()
        built.clear()
        counted.clear()
        ghat = write_job(tmp_path, "ghat", {"rank": 3, "h": "a b", "m": 4}, {"r_max": 6})
        code, out, _ = run_cli(capsys, "run", str(ghat), "--quiet")
        # Ghat(a b, 4) forbids the two length-4 factors of (a b)^infinity
        assert code == 0 and ranks == [3, 3] and counted == [3, 3]
        assert built == [(3, 2), (3, 0)]

    @pytest.mark.parametrize("oracle", [
        {"kind": "factor-kernel", "kill": [1]},
        {"kind": "abelianization-kernel"},
        {"kind": "homomorphism-to-integers", "coefficients": [[1, 1], [1, -1]]},
    ], ids=["factor-kernel", "abelianization", "hom"])
    def test_quotient_without_check_reports_the_section_size(self, tmp_path, capsys, oracle):
        params = {"factors": [{"rank": 2}, {"rank": 2}], "p": 1, "oracle": oracle}
        job = write_job(tmp_path, "quotient", params, {"r_max": 3})
        code, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        res = json.loads(out)["results"]
        assert code == 0 and res["oracle"] == oracle
        spec = LpProductSpec((Alphabet(2), Alphabet(2)), 1)
        record = cli._oracle(oracle, "oracle")
        assert res["section_size"] == res["balls"][-1] == minimal_section(spec, record, 3).size

    def test_every_quotient_kind_has_a_field_table(self):
        assert list(cli._ORACLES) == list(KINDS)

    def test_axioms_explicit(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            "axioms",
            {"rank": 2, "axes": ["a b", "b a", "a b a"], "samples": ["b b a-"]},
        )
        _, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        res = json.loads(out)["results"]
        assert res["mode"] == "explicit"
        assert res["xi_observed"] == 3
        assert res["within_bound"] is True
        assert res["violations"] == []

    def test_axioms_translated_axis_form(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            "axioms",
            {"rank": 2, "axes": ["a b", {"h": "a b", "translate": "b b b"}]},
        )
        _, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        res = json.loads(out)["results"]
        assert res["xi_observed"] == 0

    def test_axioms_random_is_seed_reproducible(self, tmp_path, capsys):
        params = {"rank": 2, "random": {"seed": 5, "triples": 5, "core_max": 3}}
        job = write_job(tmp_path, "axioms", params)
        _, out1, _ = run_cli(capsys, "run", str(job), "--quiet")
        _, out2, _ = run_cli(capsys, "run", str(job), "--quiet")
        assert out1 == out2
        res = json.loads(out1)["results"]
        assert res["mode"] == "random"
        assert res["violations"] == 0
        assert res["xi_observed"] <= res["bound"]

    def test_random_axes_are_met_once_per_pair(self, tmp_path, capsys, monkeypatch):
        # the scans that tell a triple's lines apart while it is drawn are
        # the three meets its score reads: the scorer gets exactly those
        # scan results, and no pair is met and no frame built while it runs
        params = {"rank": 2, "random": {"seed": 5, "triples": 5, "core_max": 3}}
        job = write_job(tmp_path, "axioms", params)
        _, before, _ = run_cli(capsys, "run", str(job), "--quiet")
        meet, letter_frame, score = tree._meet, tree._letter_frame, tree._score_axes
        scoring, drawn_meets, scored = [False], [], []

        def spy_meet(source, target):
            assert not scoring[0], "a pair of drawn axes was met twice"
            drawn_meets.append(meet(source, target))
            return drawn_meets[-1]

        def spy_frame(*args):
            assert not scoring[0], "a frame was built while a triple was scored"
            return letter_frame(*args)

        def spy_score(frames, meets, *args):
            assert len(frames) == 3 and sorted(meets) == [(0, 1), (0, 2), (1, 2)]
            assert all(any(m is d for d in drawn_meets) for m in meets.values())
            scored.append(len(drawn_meets))
            drawn_meets.clear()
            scoring[0] = True
            try:
                return score(frames, meets, *args)
            finally:
                scoring[0] = False

        monkeypatch.setattr(tree, "_meet", spy_meet)
        monkeypatch.setattr(tree, "_letter_frame", spy_frame)
        monkeypatch.setattr(tree, "_score_axes", spy_score)
        code, after, _ = run_cli(capsys, "run", str(job), "--quiet")
        assert code == 0 and after == before
        # one score per triple, each after at least the three scans of its pairs
        assert len(scored) == 5 and min(scored) >= 3

    @pytest.mark.parametrize("rank", [2, 3])
    def test_random_letters_draw_as_the_option_comprehension(self, rank):
        # the per-position option list the draws were first made from; the
        # precomputed lists must make the same rng calls on the same lists
        def reference(rng, alphabet, length, cyclic):
            letters: list[int] = []
            for _ in range(length):
                options = [
                    x
                    for x in alphabet.letters
                    if (not letters or x != letters[-1] ^ 1)
                    and not (
                        cyclic and len(letters) == length - 1 and letters and x == letters[0] ^ 1
                    )
                ]
                letters.append(rng.choice(options))
            return tuple(letters)

        alphabet = Alphabet(rank)
        options = tree._letter_options(alphabet)
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            for length in range(1, 5):
                for cyclic in (False, True):
                    assert tree._random_letters(ours, options, length, cyclic) == reference(
                        theirs, alphabet, length, cyclic
                    )
            assert ours.getstate() == theirs.getstate()

    def test_random_axes_build_each_h_once(self, tmp_path, capsys, monkeypatch):
        # one letter frame per distinct h, and every pair the family meets is
        # a pair of those frames, so no axis is built another way
        params = {"rank": 2, "random": {"seed": 5, "triples": 30, "core_max": 2}}
        job = write_job(tmp_path, "axioms", params)
        _, before, _ = run_cli(capsys, "run", str(job), "--quiet")
        meet, letter_frame = tree._meet, tree._letter_frame
        built, frames, met = [], [], []

        def spy_frame(h, *args):
            built.append(h)
            frames.append(letter_frame(h, *args))
            return frames[-1]

        def spy_meet(source, target):
            assert any(source is f for f in frames) and any(target is f for f in frames)
            met.append((source, target))
            return meet(source, target)

        monkeypatch.setattr(tree, "_letter_frame", spy_frame)
        monkeypatch.setattr(tree, "_meet", spy_meet)
        code, after, _ = run_cli(capsys, "run", str(job), "--quiet")
        assert code == 0 and after == before
        assert built and len(built) == len(set(built))
        assert len(met) >= 3 * 30

    def test_axioms_lemma31_sweep(self, tmp_path, capsys):
        job = write_job(
            tmp_path,
            "axioms",
            {"rank": 2, "lemma31": {"h": "a b", "g_max": 3, "n_max": 6}},
        )
        _, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        res = json.loads(out)["results"]
        assert res["checked"] == 52
        assert res["failures"] == 0
        assert res["branches"] == {"bounded-projection": 50, "power-in-subgroup": 2}
        assert res["d_tree"] == 0


class TestOrientedGap:
    """The avoid job's compare_inverse path: avoiding the factors alone
    against avoiding them and their inverses."""

    def avoid(self, tmp_path, capsys, factors, r_max=10):
        job = write_job(tmp_path, "avoid", {"rank": 2, "factors": factors}, {"r_max": r_max})
        code, out, err = run_cli(capsys, "run", str(job), "--quiet")
        return code, json.loads(out)["results"] if code == 0 else err

    def test_ab_orientation_ordering(self, tmp_path, capsys):
        code, res = self.avoid(tmp_path, capsys, ["a b"])
        one_sided, both = res["bracket"], res["with_inverses"]["bracket"]
        assert code == 0 and res["with_inverses"]["factors"] == ["a b", "b- a-"]
        assert one_sided["upper"] < math.log(3) - 1e-6
        assert both["upper"] < math.log(3) - 1e-6
        assert one_sided["upper"] >= both["upper"]  # larger language grows faster

    def test_single_letter_matches_brute(self, tmp_path, capsys):
        code, res = self.avoid(tmp_path, capsys, ["a"])
        both = res["with_inverses"]
        assert code == 0 and both["factors"] == ["a", "a-"]
        assert res["spheres"] == oracles.avoid_sphere_counts(2, ["a"], 10)
        assert both["spheres"] == oracles.avoid_sphere_counts(2, ["a", "A"], 10)
        # words over {b, b-} alone form a line: growth zero
        assert abs(both["bracket"]["upper"]) < 1e-9
        assert res["bracket"]["upper"] > 0.8

    def test_trivial_f_rejected(self, tmp_path, capsys):
        code, err = self.avoid(tmp_path, capsys, ["1"])
        assert code == 2 and "forbidden factors must be non-empty" in err


class TestExitCodes:
    def test_malformed_json_is_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "growthtight/job-v1",\n  "command": }')
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert "line 2" in err and "invalid input" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.json"))
        assert code == 2 and "cannot read job file" in err

    def test_wrong_schema(self, tmp_path, capsys):
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps({"schema": "growthtight/job-v0", "command": "count"}))
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2 and "unsupported schema" in err

    def test_unknown_command(self, tmp_path, capsys):
        bad = tmp_path / "cmd.json"
        bad.write_text(json.dumps({"schema": "growthtight/job-v1", "command": "solve"}))
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2 and "unknown command" in err

    def test_bad_word_reports_the_token(self, tmp_path, capsys):
        job = write_job(tmp_path, "avoid", {"rank": 2, "factors": ["a c"]})
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2
        assert "unknown letter 'c' at token 1 (rank 2)" in err

    def test_missing_parameter(self, tmp_path, capsys):
        job = write_job(tmp_path, "ghat", {"rank": 2, "m": 4})
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2 and "missing required parameter 'h'" in err

    @pytest.mark.parametrize("command", ["quotient", "tightness"])
    @pytest.mark.parametrize("oracle", [
        {"kind": "verbal-kernel"}, {"kind": "user-table"}, {"kind": [1]}, {"kind": {}},
        {}, {"kill": [1]},
    ], ids=["verbal-kernel", "user-table", "list", "object", "empty", "no-kind"])
    def test_unknown_oracle_kind_is_invalid_input(self, tmp_path, capsys, command, oracle):
        params = {"factors": [{"rank": 2}, {"rank": 2}], "p": 1, "oracle": oracle}
        job = write_job(tmp_path, command, params)
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2 and "oracle kind must be one of" in err

    def test_negative_budget(self, tmp_path, capsys):
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": -1})
        assert run_cli(capsys, "run", str(job))[0] == 2

    @pytest.mark.parametrize("budgets,extra,name", [
        ({"r_max": "5"}, {}, "r_max"),
        ({"r_max": 3.5}, {}, "r_max"),
        ({"r_max": True}, {}, "r_max"),
        ({"tol": "1e-9"}, {}, "tol"),
        ({"tol": True}, {}, "tol"),
        ({"cutoff": -1}, {}, "cutoff"),
        ({}, {"output": "x"}, "output"),
        ({}, {"output": {"csv": 7}}, "output"),
    ], ids=[
        "r_max-string", "r_max-float", "r_max-bool", "tol-string", "tol-bool",
        "cutoff-negative", "output-string", "output-csv-int",
    ])
    def test_malformed_budget_is_invalid_input(self, tmp_path, capsys, budgets, extra, name):
        job = write_job(tmp_path, "count", {"rank": 2}, budgets, **extra)
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2
        assert "invalid input" in err and name in err

    def test_unknown_budget_is_invalid_input(self, tmp_path, capsys):
        # a misspelt budget must not run at the default r_max 10
        job = write_job(tmp_path, "count", {"rank": 2}, {"rmax": 3})
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2 and "unknown budget 'rmax'" in err

    @pytest.mark.parametrize("max_len", [-1, True, "3", 2.0])
    def test_bad_avoid_sweep_max_len_is_invalid_input(self, tmp_path, capsys, max_len):
        job = write_job(tmp_path, "avoid", {"rank": 2, "sweep": {"max_len": max_len}})
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2 and "max_len must be a non-negative integer" in err

    def test_avoid_sweep_obeys_the_cutoff(self, tmp_path, capsys):
        job = write_job(tmp_path, "avoid", {"rank": 2, "sweep": {"max_len": 3}}, {"cutoff": 1})
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 3 and "max_len 3 exceeds enumeration cutoff 1" in err

    def test_bool_sweep_radius_is_rejected(self, tmp_path, capsys):
        job = write_job(tmp_path, "axioms", {"rank": 2, "lemma31": {"h": "a b", "g_max": True}})
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2 and "g_max must be a non-negative integer, got True" in err

    @pytest.mark.parametrize("command,params", [
        ("count", {"rank": True}),
        ("count", {"rank": 2.0}),
        ("product", {"factors": [{"rank": "2"}], "p": 1}),
        ("product", {"factors": [{"rank": 2}, {"rank": True}], "p": 1}),
    ])
    def test_non_integer_rank_is_invalid_input(self, tmp_path, capsys, command, params):
        job = write_job(tmp_path, command, params)
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2 and "rank must be an integer" in err

    def test_cutoff_hits_resource_limit(self, tmp_path, capsys):
        # a homomorphism check spells its minimal section and lists no word,
        # but minimal_section checks its radius against the cutoff up front
        job = write_job(
            tmp_path,
            "quotient",
            {
                "factors": [{"rank": 2}, {"rank": 2}],
                "p": 1,
                "oracle": {
                    "kind": "homomorphism-to-integers",
                    "coefficients": [[1, 1], [1, -1]],
                },
                "check": {"h": ["a b", "b a-"], "K": 6},
            },
            {"r_max": 8, "cutoff": 6},
        )
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 3 and "exceeds enumeration cutoff 6" in err

    HUGE_P_JOBS = {
        "product": {},
        "quotient": {
            "oracle": {"kind": "homomorphism-to-integers", "coefficients": [[1, 1], [1, -1]]},
            "check": {"h": ["a b", "b a-"], "K": 6},
        },
        "tightness": {"oracle": {"kind": "abelianization-kernel"}},
    }

    @pytest.mark.parametrize("command", sorted(HUGE_P_JOBS))
    @pytest.mark.parametrize("p", [1e308, 1e6, 700.5])
    def test_huge_finite_p_hits_resource_limit_at_once(self, tmp_path, capsys, command, p):
        # integer keys of a huge p grow without bound, and a non-integer p
        # this large overflows float keys at the default radii
        params = {"factors": [{"rank": 2}, {"rank": 2}], "p": p, **self.HUGE_P_JOBS[command]}
        job = write_job(tmp_path, command, params)
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "run", str(job))
        assert time.perf_counter() - start < 1.0
        assert code == 3 and f"p = {p:g}" in err and '"inf"' in err

    @pytest.mark.parametrize("command", ["product", "tightness"])
    @pytest.mark.parametrize("p,code", [(1.0001, 3), (1 + 1e-9, 3), (1.0002, 0), (1.001, 0)])
    def test_p_just_above_1_is_a_resource_limit_where_q_overflows(
        self, tmp_path, capsys, monkeypatch, command, p, code
    ):
        # the predicted exponent is ||deltas||_q with q = p/(p - 1); its
        # float weights overflow once q passes about 7 550, and a product job
        # finds that out before it builds a lattice table
        if code and command == "product":
            def untouchable(*args, **kwargs):
                raise AssertionError("a lattice table was built before the exit")

            monkeypatch.setattr(products, "LatticeTable", untouchable)
        params = {"factors": [{"rank": 2}, {"rank": 2}], "p": p, **self.HUGE_P_JOBS[command]}
        job = write_job(tmp_path, command, params)
        got, _, err = run_cli(capsys, "run", str(job), "--quiet")
        assert got == code
        assert (f"p = {p!r}" in err and "overflows a float" in err) if code else err == ""

    def test_p_1000_still_runs(self, tmp_path, capsys):
        params = {"factors": [{"rank": 2}, {"rank": 2}], "p": 1000}
        job = write_job(tmp_path, "product", params, {"r_max": 8})
        code, out, err = run_cli(capsys, "run", str(job), "--quiet")
        assert code == 0 and err == ""
        spheres = [[oracles.sphere_size(2, r) for r in range(9)]] * 2
        assert json.loads(out)["results"]["balls"] == [
            oracles.product_ball_brute(1000, spheres, r) for r in range(9)
        ]
        # the section lengths are p-th roots of int keys beyond float range
        params.update(self.HUGE_P_JOBS["quotient"])
        job = write_job(tmp_path, "quotient", params)
        code, out, err = run_cli(capsys, "run", str(job), "--quiet")
        assert code == 0 and err == ""
        results = json.loads(out)["results"]
        assert results["structure_check"]["passed"]
        assert results["structure_check"]["checked"] == results["balls"][-1]

    @pytest.mark.parametrize("oracle,ball", [
        # Z^4 with its l^1 norm: sum_j 2^j C(4, j) C(r, j) points within r
        (
            {"kind": "abelianization-kernel"},
            lambda r: sum(2**j * math.comb(4, j) * math.comb(r, j) for j in range(5)),
        ),
        # a + b on one factor, a - b on the other: every integer in [-r, r]
        (
            {"kind": "homomorphism-to-integers", "coefficients": [[1, 1], [1, -1]]},
            lambda r: 2 * r + 1,
        ),
    ])
    def test_quotient_counts_are_not_capped_by_the_cutoff(self, tmp_path, capsys, oracle, ball):
        params = {"factors": [{"rank": 2}, {"rank": 2}], "p": 1, "oracle": oracle}
        job = write_job(tmp_path, "quotient", params, {"r_max": 20})
        code, out, err = run_cli(capsys, "run", str(job), "--quiet")
        assert code == 0 and err == ""
        rep = json.loads(out)
        assert rep["job"]["budgets"]["cutoff"] == 14
        assert rep["results"]["balls"] == [ball(r) for r in range(21)]

    def test_tightness_is_not_capped_by_the_cutoff(self, tmp_path, capsys):
        params = {
            "factors": [{"rank": 2}, {"rank": 2}],
            "p": 1,
            "oracle": {"kind": "abelianization-kernel"},
        }
        job = write_job(tmp_path, "tightness", params, {"r_max": 20, "tol": 0.08})
        code, out, _ = run_cli(capsys, "run", str(job), "--quiet")
        assert code == 0
        assert json.loads(out)["results"]["r_max"] == 20

    @pytest.mark.parametrize("h,K,message", [
        (["a b", "b a-"], "6", "check K must be an integer, got '6'"),
        (["a b", "b a-"], 2.5, "check K must be an integer, got 2.5"),
        (["a b", "b a-"], True, "check K must be an integer, got True"),
        (["a b", "b a-"], 5, "check K=5 below the shortening threshold 6 of h"),
        # the threshold is the largest over the coordinates: 8 for a b a-, 4 for b
        (["a b a-", "b"], 6, "check K=6 below the shortening threshold 8 of h"),
    ])
    def test_bad_structure_check_K_is_rejected(self, tmp_path, capsys, h, K, message):
        job = write_job(
            tmp_path,
            "quotient",
            {
                "factors": [{"rank": 2}, {"rank": 2}],
                "p": 1,
                "oracle": {
                    "kind": "homomorphism-to-integers",
                    "coefficients": [[1, 1], [1, -1]],
                },
                "check": {"h": h, "K": K},
            },
            {"r_max": 3},
        )
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2 and message in err

    def test_bool_shorten_sweep_K_is_rejected(self, tmp_path, capsys):
        job = write_job(
            tmp_path, "ghat", {"rank": 2, "h": "a", "m": 4, "shorten_sweep": {"g_max": 3, "K": True}}
        )
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2 and "shorten_sweep K must be an integer, got True" in err

    @pytest.mark.parametrize("command,params,extra,message", [
        ("axioms", {"rank": 2, "lemma31": {"h": "a b", "g_max": 2, "n_max": "8"}}, {},
         "lemma31 n_max must be a positive integer, got '8'"),
        ("axioms", {"rank": 2, "lemma31": {"h": "a b", "g_max": 2, "n_max": -3}}, {},
         "lemma31 n_max must be a positive integer, got -3"),
        ("axioms", {"rank": 2, "lemma31": {"h": "a b", "g_max": 2, "nmax": 8}}, {},
         "unknown lemma31 field 'nmax'"),
        ("avoid", {"rank": 2, "sweep": {"max_len": 2, "margin": "x"}}, {},
         "sweep margin must be a number, got 'x'"),
        ("avoid", {"rank": 2, "sweep": {"max_len": 0}}, {}, "sweep max_len must be at least 1"),
        ("avoid", {"rank": 2, "factors": ["a b"], "compare_inverse": "no"}, {},
         "compare_inverse must be true or false, got 'no'"),
        ("ghat", {"rank": 2, "h": "a b", "m": "6"}, {}, "m must be an integer, got '6'"),
        ("ghat", {"rank": 2, "h": "a", "m": True}, {}, "m must be an integer, got True"),
        ("ghat", {"rank": 2, "h": 5, "m": 6}, {}, "h must be a string, got 5"),
        ("count", {"rank": 2, "forbidden": [5]}, {}, "forbidden[0] must be a string, got 5"),
        ("count", {"rank": 2, "forbiden": ["a b"]}, {}, "unknown parameter 'forbiden'"),
        ("count", {"rank": 2}, {"budget": {"r_max": 3}}, "unknown job document field 'budget'"),
        ("axioms", {"rank": 2, "random": {"triples": "5"}}, {},
         "random triples must be a non-negative integer, got '5'"),
        ("axioms", {"rank": 2, "random": {"core_max": 0}}, {},
         "random core_max must be a positive integer, got 0"),
        ("axioms", {"rank": 1, "random": {"triples": 1}}, {},
         "random axes span fewer than three distinct lines"),
        ("axioms", {"rank": 2, "random": {"triples": 1, "core_max": 1, "conjugator_max": 0}}, {},
         "random axes span fewer than three distinct lines"),
        ("axioms", {"rank": 2, "random": {"seed": [1]}}, {},
         "random seed must be an integer, got [1]"),
        ("axioms", {"rank": 2, "random": [1]}, {}, "random must be an object, got [1]"),
        ("axioms", {"rank": 2, "random": {"triples": 2}, "candidate_xi": "5"}, {},
         "candidate_xi must be a number, got '5'"),
        ("axioms", {"rank": 2, "axes": [{"h": "a", "translate": 3}, "b"]}, {},
         "axes[0] translate must be a string, got 3"),
        ("axioms", {"rank": 2, "axes": []}, {}, "axes must be a non-empty list of axes, got []"),
        ("tightness", {"factors": [{"rank": 2}, {"rank": 2}], "p": 1,
                       "oracle": {"kind": "factor-kernel", "kill": "1"}}, {},
         "oracle kill must be a list of integers, got '1'"),
        ("quotient", {"factors": [{"rank": 2}, {"rank": 2}], "p": 1,
                      "oracle": {"kind": "homomorphism-to-integers", "coefficients": ["ab", "cd"]}},
         {}, "oracle coefficients[0] must be a list of integers, got 'ab'"),
        ("quotient", {"factors": [{"rank": 2}, {"rank": 2}], "p": 1,
                      "oracle": {"kind": "homomorphism-to-integers",
                                 "coefficients": [[1, 1], [1, -1]]},
                      "check": {"h": ["a b", "b a-", "a"], "K": 6}},
         {}, "check h has 3 words for 2 factors"),
        ("quotient", {"factors": [{"rank": 2}, {"rank": 2}], "p": 1,
                      "oracle": {"kind": "abelianization-kernel", "kill": [1],
                                 "coefficients": [[1, 1], [1, -1]]}},
         {}, "unknown abelianization-kernel oracle field 'coefficients'"),
        ("tightness", {"factors": [{"rank": 2}, {"rank": 2}], "p": 1,
                       "oracle": {"kind": "factor-kernel", "kill": [1],
                                  "coefficients": [[1, 1], [1, -1]]}},
         {}, "unknown factor-kernel oracle field 'coefficients'"),
        ("quotient", {"factors": [{"rank": 2}, {"rank": 2}], "p": 1,
                      "oracle": {"kind": "homomorphism-to-integers", "kill": [0],
                                 "coefficients": [[1, 1], [1, -1]]}},
         {}, "unknown homomorphism-to-integers oracle field 'kill'"),
        ("product", {"factors": [{"rank": 2}, {"rank": 2}], "p": 10**400}, {},
         "exponent p is too large for a float"),
        ("avoid", {"rank": 2, "factors": ["a b"], "sweep": {"max_len": 1}}, {},
         "give exactly one of factors, sweep; got ['factors', 'sweep']"),
        ("avoid", {"rank": 2}, {}, "give exactly one of factors, sweep; got none"),
        ("axioms", {"rank": 2, "lemma31": {"h": "a b"}, "axes": ["a", "b", "a b"]}, {},
         "give exactly one of lemma31, random, axes; got ['lemma31', 'axes']"),
        ("axioms", {"rank": 2, "random": {"triples": 1}, "axes": ["a", "b", "a b"]}, {},
         "give exactly one of lemma31, random, axes; got ['random', 'axes']"),
        ("axioms", {"rank": 2, "lemma31": {"h": "a b"}, "samples": ["a"], "candidate_xi": 0}, {},
         "samples applies only to random, axes, not lemma31"),
        ("axioms", {"rank": 2, "lemma31": {"h": "a b"}, "candidate_xi": 0}, {},
         "candidate_xi applies only to random, axes, not lemma31"),
        ("avoid", {"rank": 2, "sweep": {"max_len": 1}, "compare_inverse": False}, {},
         "compare_inverse applies only to factors, not sweep"),
        ("avoid", {"rank": 2, "sweep": {"max_len": 1}, "compare_inverse": True}, {},
         "compare_inverse applies only to factors, not sweep"),
        # json.load reads NaN and Infinity; a report cannot embed them as numbers
        ("exponent", {"rank": 2}, {"budgets": {"tol": math.inf}},
         "budget tol must be a positive number, got inf"),
        ("axioms", {"rank": 2, "random": {"triples": 2}, "candidate_xi": math.nan}, {},
         "candidate_xi must be a number, got nan"),
        ("axioms", {"rank": 2, "axes": ["a b", "b a"], "candidate_xi": -math.inf}, {},
         "candidate_xi must be a number, got -inf"),
        ("avoid", {"rank": 2, "sweep": {"max_len": 1, "margin": math.nan}}, {},
         "sweep margin must be a number, got nan"),
    ], ids=[
        "lemma31-n_max-string", "lemma31-n_max-negative", "lemma31-misspelt-n_max",
        "sweep-margin-string", "sweep-max_len-zero", "compare_inverse-string",
        "ghat-m-string", "ghat-m-bool", "ghat-h-int", "forbidden-int-item",
        "misspelt-forbidden", "top-level-budget", "random-triples-string",
        "random-core_max-zero", "random-rank1-one-line", "random-rank2-letter-lines",
        "random-seed-list", "random-list", "candidate_xi-string",
        "axis-translate-int", "axes-empty", "oracle-kill-string", "oracle-coefficients-strings",
        "check-h-three-words-two-factors", "abelianization-oracle-with-kill",
        "factor-kernel-oracle-with-coefficients", "hom-oracle-with-kill",
        "product-p-integer-overflows-float",
        "avoid-factors-and-sweep", "avoid-no-mode", "axioms-lemma31-and-axes",
        "axioms-random-and-axes", "lemma31-with-samples", "lemma31-with-candidate_xi",
        "sweep-with-compare_inverse-false", "sweep-with-compare_inverse-true",
        "tol-infinity", "random-candidate_xi-nan", "axes-candidate_xi-minus-infinity",
        "sweep-margin-nan",
    ])
    def test_malformed_job_is_invalid_input(
        self, tmp_path, capsys, command, params, extra, message
    ):
        # each of these ran a different experiment or crashed (exit 4) before
        # the job format was checked from one table; the two random families
        # of fewer than three lines drew axes forever; a second mode block,
        # or a field only another mode reads, was dropped without a word
        job = write_job(tmp_path, command, params, **extra)
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2 and f"invalid input: {message}" in err

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("target", ["missing/report", "."], ids=["missing-dir", "directory"])
    def test_unwritable_output_is_invalid_input(self, tmp_path, capsys, flag, target):
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 2})
        code, _, err = run_cli(capsys, "run", str(job), "--quiet", flag, str(tmp_path / target))
        assert code == 2 and "invalid input: cannot write output file" in err

    @pytest.mark.parametrize("bad", ["--out", "--csv"])
    def test_unwritable_output_leaves_no_other_output(self, tmp_path, capsys, bad):
        # both outputs are opened before either is written: a report next to
        # an unwritable CSV path, or a CSV next to an unwritable report path,
        # would look like the output of a run that succeeded
        job = Path(__file__).resolve().parent.parent / "jobs" / "free_rank2_exponent.json"
        paths = {"--out": tmp_path / "rep.json", "--csv": tmp_path / "rep.csv"}
        paths[bad] = tmp_path
        code, out, err = run_cli(
            capsys, "run", str(job), "--out", str(paths["--out"]), "--csv", str(paths["--csv"])
        )
        assert code == 2 and "invalid input: cannot write output file" in err
        assert out == ""
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", ["--out", "--csv"])
    @pytest.mark.parametrize("via_link", [False, True], ids=["file", "symlink"])
    def test_unwritable_output_keeps_a_file_that_was_there(self, tmp_path, capsys, bad, via_link):
        # the other output already exists: it is neither removed nor emptied,
        # and a symlink naming it stays a symlink
        job = Path(__file__).resolve().parent.parent / "jobs" / "free_rank2_exponent.json"
        kept = tmp_path / "kept.txt"
        kept.write_text("from before\n")
        other = kept
        if via_link:
            other = tmp_path / "link.txt"
            other.symlink_to(kept)
        paths = {"--out": other, "--csv": other}
        paths[bad] = tmp_path / "missing" / "x"
        code, out, err = run_cli(
            capsys, "run", str(job), "--out", str(paths["--out"]), "--csv", str(paths["--csv"])
        )
        assert code == 2 and "invalid input: cannot write output file" in err and out == ""
        assert kept.read_text() == "from before\n"
        assert other.is_symlink() == via_link

    def test_outputs_replace_a_file_that_was_there(self, tmp_path, capsys):
        # the outputs are opened to append and then emptied, so a longer
        # file that was there leaves nothing of itself behind
        job = Path(__file__).resolve().parent.parent / "jobs" / "free_rank2_exponent.json"
        out_path, csv_path = tmp_path / "rep.json", tmp_path / "rep.csv"
        code, _, _ = run_cli(capsys, "run", str(job), "--quiet", "--out", str(out_path))
        report = out_path.read_text()
        for path in (out_path, csv_path):
            path.write_text("x" * (2 * len(report)))
        code, out, _ = run_cli(
            capsys, "run", str(job), "--quiet", "--out", str(out_path), "--csv", str(csv_path)
        )
        assert code == 0 and out == "" and out_path.read_text() == report
        csv = csv_path.read_text()
        assert csv.startswith("r,sphere,ball\n") and "x" not in csv

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
    def test_outputs_naming_one_file_are_invalid_input(self, tmp_path, capsys, spelling, existing):
        # two handles on one file would each write from offset 0 and leave
        # the CSV and pieces of the report mixed in it
        job = Path(__file__).resolve().parent.parent / "jobs" / "free_rank2_exponent.json"
        target = tmp_path / "same.txt"
        if existing:
            target.write_text("from before\n")
        second = {
            "same": target,
            "dotted": tmp_path / "." / "same.txt",
            "symlink": tmp_path / "link.txt",
        }[spelling]
        if spelling == "symlink":
            second.symlink_to(target)
        code, out, err = run_cli(
            capsys, "run", str(job), "--out", str(target), "--csv", str(second)
        )
        assert code == 2 and "name the same file" in err and out == ""
        assert target.exists() == existing
        assert not existing or target.read_text() == "from before\n"

    def test_a_failed_stdout_write_is_not_an_output_file_error(self, tmp_path, capsys, monkeypatch):
        # a broken pipe on stdout keeps its exit 4: no output file is involved,
        # and the report file is written in full before stdout is
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 2})
        out_path = tmp_path / "rep.json"
        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        code = cli.main(["run", str(job), "--out", str(out_path)])
        err = capsys.readouterr().err
        assert code == 4 and "BrokenPipeError" in err and "cannot write output file" not in err
        assert json.loads(out_path.read_text())["job"]["command"] == "count"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no digit limit"
    )
    @pytest.mark.parametrize("quiet", [True, False])
    def test_count_past_the_digit_limit_is_a_resource_limit(self, tmp_path, capsys, quiet):
        # the sphere of radius 1400 in F2 holds 4 * 3**1399 words, 668 digits
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 1400})
        out_path, csv_path = tmp_path / "rep.json", tmp_path / "rep.csv"
        argv = ["run", str(job), "--out", str(out_path), "--csv", str(csv_path)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, *argv, *(["--quiet"] if quiet else []))
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 3 and "resource limit" in err and "more than 640 digits" in err
        assert out == "" and not out_path.exists() and not csv_path.exists()

    @staticmethod
    def _count_runs(monkeypatch, run):
        count = cli.COMMANDS["count"]
        mode = dataclasses.replace(count.mode, run=run)
        monkeypatch.setitem(cli.COMMANDS, "count", dataclasses.replace(count, mode=mode))

    def test_invariant_breach_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(params, budgets):
            raise InternalInvariantError("synthetic breach")

        self._count_runs(monkeypatch, boom)
        job = write_job(tmp_path, "count", {"rank": 2})
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 4 and "invariant breach" in err

    def test_unexpected_exception_maps_to_internal_error(self, tmp_path, capsys, monkeypatch):
        self._count_runs(monkeypatch, lambda p, b: (_ for _ in ()).throw(ValueError("x")))
        job = write_job(tmp_path, "count", {"rank": 2})
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 4 and "internal error" in err


# One small job per command and mode block (mode None: the command has none),
# and whether it writes a CSV: exactly the reports with balls do.
VIEW_JOBS = [
    ("count", None, {"rank": 2, "forbidden": ["a b"]}, {"r_max": 3}, True),
    ("exponent", None, {"rank": 2}, {"r_max": 4}, True),
    ("avoid", "factors", {"rank": 2, "factors": ["a b"]}, {"r_max": 4}, True),
    ("avoid", "sweep", {"rank": 2, "sweep": {"max_len": 1}}, {}, False),
    ("ghat", None, {"rank": 2, "h": "a", "m": 2, "shorten_sweep": {"g_max": 3}}, {"r_max": 3}, True),
    ("product", None, {"factors": [{"rank": 2}, {"rank": 1}], "p": 2}, {"r_max": 8}, True),
    (
        "quotient",
        None,
        {
            "factors": [{"rank": 2}, {"rank": 2}],
            "p": 1,
            "oracle": {"kind": "homomorphism-to-integers", "coefficients": [[1, 1], [1, -1]]},
            "check": {"h": ["a b", "b a-"], "K": 6},
        },
        {"r_max": 3},
        True,
    ),
    (
        "quotient",
        None,
        {"factors": [{"rank": 2}, {"rank": 1}], "p": "inf", "oracle": {"kind": "factor-kernel"}},
        {"r_max": 3},
        True,
    ),
    (
        "tightness",
        None,
        {"factors": [{"rank": 2}, {"rank": 2}], "p": 1, "oracle": {"kind": "abelianization-kernel"}},
        {"r_max": 3},
        False,
    ),
    ("axioms", "lemma31", {"rank": 2, "lemma31": {"h": "a b", "g_max": 2}}, {}, False),
    ("axioms", "random", {"rank": 2, "random": {"seed": 1, "triples": 2}}, {}, False),
    ("axioms", "axes", {"rank": 2, "axes": ["a b", "b a", "a b a"]}, {}, False),
]
VIEW_IDS = [
    "count", "exponent", "avoid-factors", "avoid-sweep", "ghat-shorten_sweep", "product",
    "quotient-check", "quotient-no-check", "tightness", "axioms-lemma31", "axioms-random",
    "axioms-axes",
]


class TestViews:
    """The text table and the CSV show the report and nothing else."""

    @pytest.mark.parametrize("command,mode,params,budgets,writes_csv", VIEW_JOBS, ids=VIEW_IDS)
    def test_table_and_csv_are_views_of_the_report(
        self, tmp_path, capsys, command, mode, params, budgets, writes_csv
    ):
        job = write_job(tmp_path, command, params, budgets)
        csv = tmp_path / "counts.csv"
        code, out, err = run_cli(capsys, "run", str(job), "--csv", str(csv))
        assert code == 0 and err == ""
        start = out.index("\n{\n") + 1
        text = out[start:]
        report = json.loads(text)
        assert text == canonical_json(report)
        record = cli.COMMANDS[command]
        spec = (record.modes[mode] if mode else record.mode).table
        table = render_table(spec, report["results"])
        assert out[:start] == table + "\n"
        lines = table.splitlines()
        assert lines[0].split() == list(spec[0]) and len(lines) > 2
        results = report["results"]
        assert csv.exists() == writes_csv == ("balls" in results)
        if writes_csv:
            balls = results["balls"]
            spheres = results.get("spheres", [b - a for a, b in zip([0, *balls], balls)])
            rows = [f"{r},{s},{b}" for r, (s, b) in enumerate(zip(spheres, balls))]
            assert csv.read_text() == "\n".join(["r,sphere,ball", *rows]) + "\n"

    def test_quiet_never_renders_a_table(self, tmp_path, capsys, monkeypatch):
        def render(table, results):
            raise AssertionError("rendered a table under --quiet")

        monkeypatch.setattr(cli, "render_table", render)
        for command, _, params, budgets, _ in VIEW_JOBS:
            job = write_job(tmp_path, command, params, budgets)
            code, out, err = run_cli(capsys, "run", str(job), "--quiet")
            assert code == 0 and err == "" and out.startswith("{")

    @pytest.mark.parametrize("command,params,budgets,table", [
        (
            "ghat",
            {"rank": 2, "h": "a", "m": 2, "shorten_sweep": {"g_max": 3, "K": 4}},
            {"r_max": 3},
            "language     lower        upper\n"
            "-----------  -----------  -----------\n"
            "restricted   1.034467113  1.034467113\n"
            "full         1.098612289  1.098612289\n"
            "swept words  53\n"
            "shortened    0\n"
            "failures     0\n",
        ),
        (
            "tightness",
            {
                "factors": [{"rank": 2}, {"rank": 2}],
                "p": "inf",
                "oracle": {"kind": "factor-kernel", "kill": [1]},
            },
            {"r_max": 3, "tol": 0.08},
            "quantity   value\n"
            "---------  --------------------\n"
            "verdict    tight\n"
            "delta_G    [2.197225, 2.197225]\n"
            "delta_G/N  [1.098612, 1.098612]\n"
            "gap        1.098612\n",
        ),
        (
            "axioms",
            {"rank": 2, "lemma31": {"h": "a b", "g_max": 2, "n_max": 3}},
            {},
            "quantity            value\n"
            "------------------  -----\n"
            "checked             16\n"
            "failures            0\n"
            "d_tree              0\n"
            "bounded-projection  14\n"
            "power-in-subgroup   2\n",
        ),
        (
            # a finite language: the report holds its bracket as "-inf" strings
            "avoid",
            {"rank": 1, "factors": ["a", "a-"]},
            {"r_max": 3},
            "language        lower  upper\n"
            "--------------  -----  -----\n"
            "avoid           -inf   -inf\n"
            "avoid+inverses  -inf   -inf\n",
        ),
    ], ids=[
        "ghat-bracket-columns", "tightness-bracket-cells", "lemma31-branch-rows",
        "avoid-infinite-bracket",
    ])
    def test_table_layout(self, tmp_path, capsys, command, params, budgets, table):
        job = write_job(tmp_path, command, params, budgets)
        code, out, _ = run_cli(capsys, "run", str(job))
        assert code == 0 and out[: out.index("{")] == table


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 2})
        proc = subprocess.run(
            [sys.executable, "-m", "growthtight", "run", str(job), "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["balls"] == [1, 5, 17]

    def test_count_job_does_not_load_numpy(self, tmp_path):
        # numpy is imported inside the functions that need it (the Perron
        # kernel, the regression fit), so an exact count starts without it
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 2})
        script = (
            "import sys; from growthtight.cli import main; code = main(sys.argv[1:]); "
            "sys.exit(code or 'numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "run", str(job), "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_console_script(self, tmp_path):
        # Run the [project.scripts] target the way the generated wrapper
        # does, so the declaration is checked from a checkout, uninstalled.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert list(scripts) == ["growthtight"]
        module, attr = scripts["growthtight"].split(":")
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 2})
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "run", str(job), "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema"] == "growthtight/report-v1"

    @pytest.mark.skipif(
        shutil.which("growthtight") is None,
        reason="growthtight executable not on PATH (package not installed)",
    )
    def test_installed_console_script(self, tmp_path):
        job = write_job(tmp_path, "count", {"rank": 2}, {"r_max": 2})
        proc = subprocess.run(
            ["growthtight", "run", str(job), "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema"] == "growthtight/report-v1"


def per_word_sweep(alphabet, h, g_max, K) -> dict:
    """The shorten sweep as one membership test per enumerated word (the
    reference the automaton walk must reproduce)."""
    checked = in_ghat = shortened = 0
    failures = []
    for r in range(g_max + 1):
        for g in enumerate_sphere(alphabet, r):
            checked += 1
            if ghat_membership_exact(g, h, K):
                in_ghat += 1
                continue
            res = shorten(g, h, K)
            recomposed = (
                res is not None
                and res.g_prime == res.k * ~h * ~res.k * g
            )
            if res is None or len(res.g_prime) >= len(g) or not recomposed:
                failures.append(format_word(g))
            else:
                shortened += 1
    return {
        "g_max": g_max,
        "K": K,
        "checked": checked,
        "in_ghat": in_ghat,
        "shortened": shortened,
        "failures": failures,
    }


@st.composite
def reduced_words(draw, alphabet, min_size, max_size, cyclic=False):
    letters = []
    size = draw(st.integers(min_size, max_size))
    while len(letters) < size:
        x = draw(st.sampled_from(alphabet.letters))
        if letters and x == letters[-1] ^ 1:
            continue
        if cyclic and len(letters) == size - 1 and letters and x == letters[0] ^ 1:
            continue
        letters.append(x)
    return ReducedWord(alphabet, tuple(letters))


@st.composite
def sweep_cases(draw):
    alphabet = Alphabet(draw(st.integers(1, 3)))
    core = draw(reduced_words(alphabet, 1, 2, cyclic=True))
    conjugator = draw(reduced_words(alphabet, 1, 1)) if draw(st.booleans()) else alphabet.identity
    h = conjugator * core * ~conjugator
    K = shorten_threshold(h) + draw(st.integers(0, 3))
    # only radii >= K reach shorten, so lean towards the top of the range
    top = 5 if alphabet.rank == 3 else 6
    g_max = draw(st.sampled_from(range(top, -1, -1)))
    return alphabet, h, g_max, K


class TestShortenSweep:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(sweep_cases())
    @example((Alphabet(2), parse_word(Alphabet(2), "a"), 6, 4))
    @example((Alphabet(2), parse_word(Alphabet(2), "b a b-"), 6, 8))
    @example((Alphabet(1), parse_word(Alphabet(1), "a a"), 6, 6))
    @example((Alphabet(3), parse_word(Alphabet(3), "c a b"), 5, 8))
    def test_walk_equals_per_word_sweep(self, case):
        alphabet, h, g_max, K = case
        sweep = tree.shorten_sweep(alphabet, h, g_max, K, cutoff=g_max)
        assert sweep == per_word_sweep(alphabet, h, g_max, K)

    def test_failures_come_in_shortlex_order(self, monkeypatch):
        alphabet = Alphabet(2)
        h = parse_word(alphabet, "a b")
        # the walk reaches the longer word first (a < b); shortlex puts it last
        broken = {parse_word(alphabet, t).letters for t in ("a b a b a b a", "b a b a b a")}
        reference = per_word_sweep(alphabet, h, 8, 6)  # before shorten's kernel is patched
        kernel = tree._shortened

        def shorten_or_fail(g, *constants):
            return None if g in broken else kernel(g, *constants)

        monkeypatch.setattr(tree, "_shortened", shorten_or_fail)
        sweep = tree.shorten_sweep(alphabet, h, 8, 6, cutoff=8)
        assert sweep["failures"] == ["b a b a b a", "a b a b a b a"]
        assert sweep["shortened"] == reference["shortened"] - 2
        assert sweep["in_ghat"] == reference["in_ghat"]

    def test_wrong_witness_fails_the_recomposition_check(self, monkeypatch):
        # g' is still shorter, but k h^-1 k^-1 g no longer gives it
        alphabet = Alphabet(2)
        h = parse_word(alphabet, "a b")
        extra = parse_word(alphabet, "b")
        reference = per_word_sweep(alphabet, h, 8, 6)  # before shorten's kernel is patched
        kernel = tree._shortened

        def shorten_with_wrong_k(g, *constants):
            step = kernel(g, *constants)
            if step is None:
                return None
            g_prime, k, run = step
            return g_prime, (ReducedWord(alphabet, k) * extra).letters, run

        monkeypatch.setattr(tree, "_shortened", shorten_with_wrong_k)
        sweep = tree.shorten_sweep(alphabet, h, 8, 6, cutoff=8)
        assert sweep["shortened"] == 0
        assert len(sweep["failures"]) == reference["shortened"] > 0
        assert sweep["in_ghat"] == reference["in_ghat"]

    @pytest.mark.parametrize("command,params", [
        ("ghat", {"rank": 2, "h": "a b", "m": 6, "shorten_sweep": {"g_max": 15}}),
        ("axioms", {"rank": 2, "lemma31": {"h": "a b", "g_max": 15}}),
        ("avoid", {"rank": 2, "sweep": {"max_len": 15}}),
    ])
    def test_radius_above_cutoff_exits_3_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, params
    ):
        def untouchable(*args, **kwargs):
            raise AssertionError("sweep work ran past the cutoff guard")

        # every name the sweeps and the ghat job look their work up by
        for module, names in (
            (tree, ("shorten", "_shortened", "walk_ghat_ball", "_walk_ghat_letters",
                    "lemma31_bound_check", "_lemma31_orbit", "iter_sphere_letters")),
            (words, ("enumerate_sphere", "iter_sphere_letters")),
            (automata, ("enumerate_sphere", "avoid_factors", "count_lengths", "perron_root",
                        "perron_roots")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, untouchable)
        job = write_job(tmp_path, command, params, {"cutoff": 14})
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 3
        radius = "max_len" if command == "avoid" else "g_max"
        assert f"{radius} 15 exceeds enumeration cutoff 14" in err

    def test_m_below_core_length_exits_2_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        def untouchable(*args, **kwargs):
            raise AssertionError("the sweep ran before m was checked")

        for name in ("shorten", "_shortened", "walk_ghat_ball", "_walk_ghat_letters"):
            monkeypatch.setattr(tree, name, untouchable)
        job = write_job(
            tmp_path, "ghat", {"rank": 2, "h": "a b", "m": 1, "shorten_sweep": {"g_max": 13}}
        )
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2 and "m=1 below core length 2" in err

    @pytest.mark.parametrize("g_max", [3, 5])
    def test_K_below_threshold_is_rejected(self, tmp_path, capsys, g_max):
        job = write_job(
            tmp_path, "ghat", {"rank": 2, "h": "a b", "m": 6, "shorten_sweep": {"g_max": g_max, "K": 4}}
        )
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2
        assert "below the shortening threshold 6" in err

    @pytest.mark.parametrize("g_max", [-1, 2.5, "4"])
    def test_bad_radius_is_rejected(self, tmp_path, capsys, g_max):
        job = write_job(tmp_path, "ghat", {"rank": 2, "h": "a", "m": 4, "shorten_sweep": {"g_max": g_max}})
        code, _, err = run_cli(capsys, "run", str(job))
        assert code == 2 and "g_max must be a non-negative integer" in err


# One small valid job per command mode; every optional field a mode reads is
# given, so a mutation can reach it.
VALID_JOBS = [
    ("count", {"rank": 2, "forbidden": ["a b"]}, {"r_max": 3}),
    ("exponent", {"rank": 2, "forbidden": ["a a"]}, {"r_max": 4, "tol": 1e-9}),
    ("avoid", {"rank": 2, "factors": ["a b"], "compare_inverse": True}, {"r_max": 4}),
    ("avoid", {"rank": 2, "sweep": {"max_len": 1, "margin": 1e-6}}, {"cutoff": 4}),
    ("ghat", {"rank": 2, "h": "a b", "m": 4}, {"r_max": 4}),
    ("ghat", {"rank": 2, "h": "a", "m": 2, "shorten_sweep": {"g_max": 3, "K": 4}}, {"r_max": 3}),
    ("product", {"factors": [{"rank": 2}, {"rank": 1}], "p": 2}, {"r_max": 8}),
    (
        "quotient",
        {
            "factors": [{"rank": 2}, {"rank": 2}],
            "p": 1,
            "oracle": {"kind": "homomorphism-to-integers", "coefficients": [[1, 1], [1, -1]]},
            "check": {"h": ["a b", "b a-"], "K": 6},
        },
        {"r_max": 3},
    ),
    (
        "tightness",
        {
            "factors": [{"rank": 2}, {"rank": 2}],
            "p": "inf",
            "oracle": {"kind": "factor-kernel", "kill": [1]},
        },
        {"r_max": 3, "tol": 0.08},
    ),
    ("axioms", {"rank": 2, "lemma31": {"h": "a b", "g_max": 2, "n_max": 3}}, {}),
    (
        "axioms",
        {
            "rank": 2,
            "random": {"seed": 1, "triples": 2, "core_max": 2, "conjugator_max": 1},
            "samples": ["a"],
            "candidate_xi": 4,
        },
        {},
    ),
    (
        "axioms",
        {
            "rank": 2,
            "axes": ["a b", {"h": "a", "translate": "b"}],
            "samples": ["b"],
            "candidate_xi": 3,
        },
        {},
    ),
    # the quotient kinds without a check, so that every kind's field table is fuzzed
    (
        "quotient",
        {
            "factors": [{"rank": 2}, {"rank": 1}],
            "p": 2,
            "oracle": {"kind": "abelianization-kernel"},
        },
        {"r_max": 3},
    ),
    (
        "quotient",
        {
            "factors": [{"rank": 2}, {"rank": 2}],
            "p": "inf",
            "oracle": {"kind": "factor-kernel", "kill": [0]},
        },
        {"r_max": 3},
    ),
]
JUNK = [-1, 0, 2.5, True, "x", [], [1], {}, None]


def _nodes(node, path=()):
    """(path, value) for node and every value below it, lists included."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, value in children:
        yield from _nodes(value, path + (key,))


@st.composite
def mutated_jobs(draw):
    """(job document, whether an unknown field was added): a valid job with
    one value at any depth replaced by junk, or one unknown field added to
    one of its objects."""
    command, params, budgets = draw(st.sampled_from(VALID_JOBS))
    job = {"schema": "growthtight/job-v1", "command": command, "params": params, "budgets": budgets}
    job = copy.deepcopy(job)
    if draw(st.booleans()):
        _, obj = draw(st.sampled_from([n for n in _nodes(job) if isinstance(n[1], dict)]))
        obj["unexpected"] = draw(st.sampled_from(JUNK))
        return job, True
    path, _ = draw(st.sampled_from(list(_nodes(job))[1:]))
    parent = job
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(st.sampled_from(JUNK))
    return job, False


class TestJobFormat:
    @pytest.mark.parametrize("command,params,budgets", VALID_JOBS)
    def test_valid_jobs_run(self, tmp_path, capsys, command, params, budgets):
        job = write_job(tmp_path, command, params, budgets)
        code, out, err = run_cli(capsys, "run", str(job), "--quiet")
        assert code == 0 and err == ""
        assert json.loads(out)["job"]["params"] == params

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(mutated_jobs())
    def test_junk_is_invalid_input_never_an_internal_error(self, tmp_path_factory, case):
        job, unknown_field = case
        path = tmp_path_factory.getbasetemp() / "junk_job.json"
        path.write_text(json.dumps(job))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path), "--quiet"])
        assert code in (0, 2, 3), err.getvalue()
        if unknown_field:
            assert code == 2 and "unknown" in err.getvalue()
