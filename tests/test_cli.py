"""Job files, report payloads, exit codes, and byte-level determinism."""

import dataclasses
import json
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, OrderedDict
from enum import IntEnum
from pathlib import Path

import pytest

from divclass import classgroup, cli, oracle, wpoly
from divclass.cli import JobFile, build_arg_parser, main, run_job
from divclass.errors import DegenerateInput, JobFileError
from divclass.fields import FieldSpec
from divclass.hyperring import HypersurfaceInput, graded_dim, hilbert_coefficients
from divclass.linalg import Subspace
from divclass.qdivisor import DivisorContext
from divclass.wpoly import FactoredForm, WPolynomial

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def base_job(**overrides):
    data = {
        "schema_version": 1,
        "field": "Q",
        "n": 3,
        "variables": ["x1", "x2"],
        "weights": [1, 1],
        "factors": ["x1", "x2"],
        "assume_normal": True,
    }
    data.update(overrides)
    return data


class TestJobFile:
    def test_round_trip(self):
        job = JobFile.from_dict(base_job())
        assert job.n == 3
        assert job.variables == ("x1", "x2")
        assert job.assume_normal is True
        assert job.oracle is True

    def test_unknown_keys_rejected(self):
        with pytest.raises(JobFileError) as exc:
            JobFile.from_dict(base_job(extra=1, more=2))
        assert "extra" in str(exc.value) and "more" in str(exc.value)

    def test_missing_keys_rejected(self):
        data = base_job()
        del data["weights"]
        with pytest.raises(JobFileError) as exc:
            JobFile.from_dict(data)
        assert "weights" in str(exc.value)

    def test_schema_version_gate(self):
        with pytest.raises(JobFileError):
            JobFile.from_dict(base_job(schema_version=2))

    def test_type_guards(self):
        with pytest.raises(JobFileError):
            JobFile.from_dict(base_job(n="3"))
        with pytest.raises(JobFileError):
            JobFile.from_dict(base_job(n=True))  # bools are not integers here
        with pytest.raises(JobFileError):
            JobFile.from_dict(base_job(weights=[1, "1"]))
        with pytest.raises(JobFileError):
            JobFile.from_dict(base_job(factors=[]))
        with pytest.raises(JobFileError):
            JobFile.from_dict(base_job(assume_normal="yes"))
        with pytest.raises(JobFileError):
            JobFile.from_dict(base_job(verify_depth=-1))
        with pytest.raises(JobFileError):
            JobFile.from_dict([1, 2, 3])

    def test_load_errors(self, tmp_path):
        with pytest.raises(JobFileError):
            JobFile.load(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(JobFileError):
            JobFile.load(str(bad))


@pytest.mark.parametrize("command", ["classgroup", "verify", "hilbert"])
@pytest.mark.parametrize(
    "overrides",
    [
        {"x0": ""},
        {"x0": "z"},
        {"x0": "x 0"},
        {"x0": "0x"},
        {"variables": ["x1", "z"], "factors": ["x1"]},
        {"variables": ["x1", "x-2"], "factors": ["x1"]},
        {"variables": ["x1", ""], "factors": ["x1"]},
    ],
    ids=["x0-empty", "x0-z", "x0-space", "x0-digit", "var-z", "var-dash", "var-empty"],
)
def test_a_name_outside_the_parser_tokens_is_refused(command, overrides, tmp_path, capsys):
    # a report states "n*[(z, h)] = 0", and a factor can name a variable
    # only by a name token, so z and any other text would misstate it
    job = tmp_path / "job.json"
    job.write_text(json.dumps(base_job(**overrides)))
    assert main([command, str(job)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["code"] == "JOB_FILE_ERROR"
    assert "is not a variable name" in out["error"]["message"]


def test_name_tokens_other_than_z_are_accepted():
    job = base_job(variables=["_a", "Z9"], factors=["_a", "Z9"], x0="x_0")
    payload, code = run_job(JobFile.from_dict(job))
    assert code == 0, payload
    assert payload["hypotheses"]["variables"] == ["_a", "Z9", "x_0"]


class TestRunJob:
    def test_classgroup_payload(self):
        payload, code = run_job(JobFile.from_dict(base_job()))
        assert code == 0
        assert payload["mode"] == "hypersurface"
        assert payload["class_group"] == {"invariant_factors": [3], "order": 3}
        assert payload["hypotheses"]["gcd_m_n"] == 1
        assert payload["effective_factors"] == 2
        gens = payload["generators"]
        assert len(gens) == 1 and gens[0]["pair"] == ["z", "x1"]
        assert all(rel["identity_holds"] for rel in payload["relations"])
        # five factors, n = 25: a presentation on which a Smith form that
        # pivots by Euclid steps with swaps never finishes
        variables = ["x1", "x2", "x3", "x4", "x5"]
        job = base_job(n=25, variables=variables, weights=[1, 1, 1, 1, 23], factors=variables)
        payload, code = run_job(JobFile.from_dict(job))
        assert code == 0
        assert payload["class_group"]["invariant_factors"] == [25] * 4

    def test_gcd_violation_payload(self):
        job = JobFile.from_dict(
            base_job(
                variables=["x1", "x2", "x3"],
                weights=[1, 1, 1],
                factors=["x1^3 + x2^3 + x3^3"],
                assume_normal=False,
            )
        )
        payload, code = run_job(job)
        assert code == 2
        assert payload["error"]["code"] == "GCD_VIOLATION"
        assert "class_group" not in payload

    def test_normality_gate_payload(self):
        payload, code = run_job(JobFile.from_dict(base_job(assume_normal=False)))
        assert code == 2
        assert payload["error"]["code"] == "NORMALITY_UNVERIFIED"

    def test_syntax_error_carries_position(self):
        payload, code = run_job(JobFile.from_dict(base_job(factors=["x1^-1"])))
        assert code == 2
        assert payload["error"]["code"] == "NEGATIVE_EXPONENT"
        assert payload["error"]["position"] == 3

    def test_g_product_cross_check(self):
        ok = JobFile.from_dict(base_job(g="x1*x2"))
        payload, code = run_job(ok)
        assert code == 0
        bad = JobFile.from_dict(base_job(g="x1^2"))
        payload, code = run_job(bad)
        assert code == 2
        assert payload["error"]["code"] == "PRODUCT_MISMATCH"

    def test_x0_extension_mode(self):
        job = JobFile.from_dict(
            base_job(
                n=5,
                variables=["x1"],
                weights=[1],
                factors=["x1"],
                x0="x0",
            )
        )
        payload, code = run_job(job)
        assert code == 0
        assert payload["mode"] == "x0-extension"
        assert payload["x0_weight"] == 1
        assert payload["class_group"]["invariant_factors"] == [5]

    def test_x0_collision(self):
        job = JobFile.from_dict(base_job(x0="x1"))
        payload, code = run_job(job)
        assert code == 2
        assert payload["error"]["code"] == "DEGENERATE_INPUT"

    @pytest.mark.parametrize(
        "factor, code, message",
        [
            (
                "x1 + x2^2",
                "INHOMOGENEOUS_FACTOR",
                "factor x1 + x2^2 is not weighted homogeneous: "
                "mixed weighted degrees [1, 2] for weights (1, 1)",
            ),
            ("0", "ZERO_POLYNOMIAL", "zero polynomial supplied as a factor"),
        ],
    )
    @pytest.mark.parametrize("mode", [{}, {"x0": "x0"}], ids=["hypersurface", "x0"])
    def test_bad_factor_rejected_alike_in_both_modes(self, factor, code, message, mode):
        # a wrong declared g must not hide the bad factor in either mode
        for declared in ({}, {"g": "x1"}):
            job = JobFile.from_dict(base_job(factors=[factor], **declared, **mode))
            payload, exit_code = run_job(job)
            assert exit_code == 2
            assert payload["error"] == {"code": code, "message": message}

    @pytest.mark.parametrize(
        "overrides, with_g, without_g",
        [
            ({"x0": "x1"}, "PRODUCT_MISMATCH", "DEGENERATE_INPUT"),
            ({"x0": "x0", "n": 0, "factors": ["x1 + x2^2"]}, "INHOMOGENEOUS_FACTOR",
             "DEGENERATE_INPUT"),
            ({"x0": "x0", "n": 0, "factors": ["0"]}, "ZERO_POLYNOMIAL", "DEGENERATE_INPUT"),
        ],
        ids=["x0-collision", "n-zero-inhomogeneous", "n-zero-zero-factor"],
    )
    def test_x0_defects_are_reported_in_a_fixed_order(self, overrides, with_g, without_g):
        # with a declared g the factor shapes and the product are checked
        # before n and the name of x0; without g, after them
        for declared, code in (({"g": "x1^2"}, with_g), ({}, without_g)):
            payload, exit_code = run_job(JobFile.from_dict(base_job(**overrides, **declared)))
            assert exit_code == 2
            assert payload["error"]["code"] == code, declared

    @pytest.mark.parametrize("mode", [{}, {"x0": "x0"}], ids=["hypersurface", "x0"])
    def test_wrong_g_rejected_alike_in_both_modes(self, mode):
        job = JobFile.from_dict(base_job(g="x1^2", **mode))
        payload, exit_code = run_job(job)
        assert exit_code == 2
        assert payload["error"] == {
            "code": "PRODUCT_MISMATCH",
            "message": "product of factors is x1*x2, expected x1^2",
        }

    def test_verification_payload(self):
        job = JobFile.from_dict(base_job(verify_depth=40))
        payload, code = run_job(job, verify=True)
        assert code == 0
        ver = payload["verification"]
        assert ver["status"] == "pass"
        assert ver["depth"] == 40
        assert ver["section_ring"]["checked"] == 41
        assert ver["hilbert"]["first_mismatch"] is None
        oracle = ver["oracle"]
        assert oracle["status"] == "pass"
        assert oracle["order_relations"]["variant"] == "intersection"
        assert all(e["status"] == "pass" for e in oracle["divisorial_ideals"])
        # z^3 - x1 x2 is exactly the shape the lattice model covers
        assert oracle["monomial_model"]["status"] == "pass"
        assert oracle["monomial_model"]["order"] == 3

    @pytest.mark.parametrize("block", ["section_ring", "hilbert", "oracle", "monomial_model"])
    def test_one_failing_block_fails_the_run(self, block, monkeypatch):
        # the run's status is read off its blocks: one planted failure, and
        # only that block and the run say "fail", with exit code 1
        if block == "section_ring":
            true_check = cli.verify_section_ring
            monkeypatch.setattr(
                cli,
                "verify_section_ring",
                lambda dctx, depth: dataclasses.replace(
                    true_check(dctx, depth), mismatches=("planted",)
                ),
            )
        elif block == "hilbert":
            true_dims = cli.graded_dims
            monkeypatch.setattr(
                cli, "graded_dims", lambda inp, depth: [d + 1 for d in true_dims(inp, depth)]
            )
        elif block == "oracle":
            true_walk = oracle.verify_graded

            def planted_walk(dctx, depth):
                outcomes, relations = true_walk(dctx, depth)
                return outcomes, dataclasses.replace(relations, order_ok=False)

            monkeypatch.setattr(oracle, "verify_graded", planted_walk)
        else:
            true_model = oracle.monomial_model_classgroup
            monkeypatch.setattr(
                oracle,
                "monomial_model_classgroup",
                lambda n: dataclasses.replace(true_model(n), conclusive=False),
            )
        payload, code = run_job(JobFile.from_dict(base_job(verify_depth=20)), verify=True)
        ver = payload["verification"]
        statuses = {
            "section_ring": ver["section_ring"]["status"],
            "hilbert": ver["hilbert"]["status"],
            "oracle": ver["oracle"]["status"],
            "monomial_model": ver["oracle"]["monomial_model"]["status"],
        }
        failed = {block, "oracle"} if block == "monomial_model" else {block}
        assert {name for name, status in statuses.items() if status == "fail"} == failed
        assert statuses.keys() - failed == {
            name for name, status in statuses.items() if status == "pass"
        }
        assert (ver["status"], code) == ("fail", 1)

    def test_oracle_can_be_disabled(self):
        job = JobFile.from_dict(base_job(verify_depth=20, oracle=False))
        payload, code = run_job(job, verify=True)
        assert code == 0
        assert payload["verification"]["oracle"] is None
        assert payload["verification"]["status"] == "pass"

    def test_huge_group_order_serialized_as_string(self, capsys):
        n = 3**40  # odd, so coprime to m = 2, and the order tops 2^53
        job = JobFile.from_dict(base_job(n=n))
        payload, code = run_job(job)
        assert code == 0
        cli._emit(payload)
        report = json.loads(capsys.readouterr().out)
        assert report["class_group"]["order"] == str(n)
        assert report["class_group"]["invariant_factors"] == [str(n)]
        assert report["hypotheses"]["n"] == str(n)

    def test_payload_is_reproducible(self):
        job = JobFile.from_dict(base_job(verify_depth=30))
        a = run_job(job, verify=True)
        b = run_job(job, verify=True)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize(
    "job",
    [
        base_job(),
        base_job(x0="x0"),
        # x0 mode reduces the weights before it lifts the factors
        base_job(x0="x0", weights=[2, 2]),
        # validate_factorization reduces (2, 2) to (1, 1) in the one form
        base_job(weights=[2, 2]),
    ],
    ids=["reduced", "x0", "x0-rescaled", "rescaled"],
)
def test_a_job_builds_one_factored_form_and_one_input(job, monkeypatch):
    built = Counter()
    for cls in (FactoredForm, HypersurfaceInput):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built[type(self).__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    payload, code = run_job(JobFile.from_dict(job))
    assert code == 0, payload
    assert built == {"FactoredForm": 1, "HypersurfaceInput": 1}
    assert payload["hypotheses"]["weights"][:2] == [1, 1]


class TestMain:
    def test_classgroup_exit_codes(self, capsys):
        assert main(["classgroup", str(JOBS / "z3_x1x2.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["class_group"]["invariant_factors"] == [3]

        assert main(["classgroup", str(JOBS / "fermat_cubic.json")]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"]["code"] == "GCD_VIOLATION"

    def test_missing_job_file(self, capsys):
        assert main(["classgroup", "no_such_job.json"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"]["code"] == "JOB_FILE_ERROR"

    def test_verify_subcommand(self, capsys):
        assert main(["verify", str(JOBS / "z3_x1x2.json"), "--depth", "30"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verification"]["status"] == "pass"
        assert out["verification"]["depth"] == 30

    def test_hilbert_subcommand(self, capsys):
        assert main(["hilbert", str(JOBS / "z3_x1x2.json"), "--depth", "12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["j", "series", "direct"]
        assert len(lines) == 14
        assert "MISMATCH" not in "".join(lines)

    @pytest.mark.parametrize("command", ["hilbert", "verify"])
    def test_cold_dimension_count_reads_one_table(self, command, capsys):
        # the direct dims of `graded_dims`, and in verify the section
        # ring's counter check too, read one table of monomial counts for
        # all of c-degrees 0..depth // n: a cold run misses the cache once
        wpoly._denumerant_table.cache_clear()
        assert main([command, str(JOBS / "z3_x1x2.json"), "--depth", "120"]) == 0
        capsys.readouterr()
        info = wpoly._denumerant_table.cache_info()
        wpoly._denumerant_table.cache_clear()
        assert info.misses == 1, info

    @pytest.mark.parametrize("mode", [{}, {"x0": "x0"}], ids=["hypersurface", "x0"])
    def test_hilbert_builds_no_class_group(self, mode, tmp_path, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("hilbert assembled a class group")

        monkeypatch.setattr(classgroup, "cokernel_with_generator_images", unreachable)
        monkeypatch.setattr(DivisorContext, "build", staticmethod(unreachable))
        path = tmp_path / "job.json"
        path.write_text(json.dumps(base_job(**mode)))
        assert main(["hilbert", str(path), "--depth", "6"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 8
        # the gcd gate still runs: deg g = 3 and n = 3
        assert _error_of(["hilbert", str(JOBS / "fermat_cubic.json")], capsys) == (
            2, "GCD_VIOLATION"
        )

    @pytest.mark.parametrize("command", ["verify", "hilbert"])
    def test_negative_depth_is_rejected_before_any_check(self, command, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a check ran at a negative depth")

        monkeypatch.setattr(cli, "verify_section_ring", unreachable)
        monkeypatch.setattr(cli, "hilbert_coefficients", unreachable)
        assert main([command, str(JOBS / "z3_x1x2.json"), "--depth", "-1"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "error": {"code": "DEGENERATE_INPUT", "message": "depth must be nonnegative"},
            "schema_version": 1,
        }

    @pytest.mark.parametrize("command", ["verify", "hilbert"])
    def test_oversized_depth_is_rejected_before_any_check(self, command, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a check ran past the graded work bound")

        monkeypatch.setattr(cli, "verify_section_ring", unreachable)
        monkeypatch.setattr(cli, "hilbert_coefficients", unreachable)
        started = time.perf_counter()
        code = main([command, str(JOBS / "z3_x1x2.json"), "--depth", "1000000000"])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "SEARCH_SPACE_TOO_LARGE"
        assert error["message"].startswith("depth 1000000000 gives an estimated graded work of ")

    def test_hilbert_work_is_charged_one_table_per_walk(self, capsys):
        # hilbert reads one table of counts and sums the series once, so
        # the estimate grows linearly in the depth: depth 4000 runs, and
        # z^3 = x1 x2 is refused only past depth 2 142 856
        assert main(["hilbert", str(JOBS / "z3_x1x2.json"), "--depth", "4000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4002
        rows = [line.split() for line in lines[1:]]
        assert [int(row[0]) for row in rows] == list(range(4001))
        assert all(len(row) == 3 and row[1] == row[2] for row in rows)
        assert _error_of(
            ["hilbert", str(JOBS / "z3_x1x2.json"), "--depth", "2142857"], capsys
        ) == (2, "SEARCH_SPACE_TOO_LARGE")

    @pytest.mark.parametrize("name", ["z3_x1x2.json", "z5_x0x1_extension.json"])
    def test_streamed_hilbert_table_is_the_per_degree_table(self, name, capsys):
        # rows written in chunks of HILBERT_CHUNK_ROWS equal a table built
        # from the series and the count of each degree on its own
        job = str(JOBS / name)
        assert main(["hilbert", job, "--depth", "4000"]) == 0
        inp = cli._run_pipeline(JobFile.load(job)).context.input
        want = ["      j   series   direct"] + [
            f"{j:7d} {series:8d} {graded_dim(inp, j):8d}"
            for j, series in enumerate(hilbert_coefficients(inp, 4000))
        ]
        assert capsys.readouterr().out == "\n".join(want) + "\n"

    def test_streamed_hilbert_marks_exactly_the_mismatched_rows(self, capsys, monkeypatch):
        # degrees on both sides of a chunk boundary
        planted = {3, cli.HILBERT_CHUNK_ROWS - 1, cli.HILBERT_CHUNK_ROWS}
        true_dims = cli.graded_dims

        def planted_dims(inp, depth):
            return [d + (j in planted) for j, d in enumerate(true_dims(inp, depth))]

        monkeypatch.setattr(cli, "graded_dims", planted_dims)
        argv = ["hilbert", str(JOBS / "z3_x1x2.json"), "--depth", "5000"]
        assert main(argv) == 1
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 5001
        assert {j for j, row in enumerate(rows) if row.endswith("   MISMATCH")} == planted

    def test_hilbert_holds_no_table_of_text(self, monkeypatch):
        # the two columns of 200 001 ints and one chunk of rows stay under
        # 24 MiB of Python allocations; holding every row, its line and the
        # joined text took about 47 MiB
        class Sink:
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        wpoly._denumerant_table.cache_clear()
        tracemalloc.start()
        try:
            code = main(["hilbert", str(JOBS / "z3_x1x2.json"), "--depth", "200000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            wpoly._denumerant_table.cache_clear()
        assert code == 0
        assert peak < 24 * 2**20, peak

    def test_default_depth_of_four_unit_weights_is_refused_to_verify_only(
        self, tmp_path, capsys, monkeypatch
    ):
        # at the default depth 200, four unit weights give about 4.6 million
        # monomials of c-degree at most 100 per z-power: hilbert only counts
        # them and runs, verify would build pieces of them and is refused
        path = tmp_path / "job.json"
        path.write_text(
            json.dumps(
                base_job(n=2, variables=["x1", "x2", "x3", "x4"], weights=[1, 1, 1, 1],
                         factors=["x1", "x2", "x3"])
            )
        )
        assert main(["hilbert", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 202

        def unreachable(*args):
            raise AssertionError("a check ran past the graded work bound")

        monkeypatch.setattr(cli, "verify_section_ring", unreachable)
        monkeypatch.setattr(cli, "hilbert_coefficients", unreachable)
        assert _error_of(["verify", str(path)], capsys) == (2, "SEARCH_SPACE_TOO_LARGE")

    def test_factors_count_subcommand(self, capsys):
        assert main(["factors-count", "--c", "3", "--field", "Q"]) == 0
        assert capsys.readouterr().out == "2\n"
        assert main(["factors-count", "--c", "3", "--field", "Qbar"]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_factors_count_warning_goes_to_stderr(self):
        proc = subprocess.run(
            [sys.executable, "-m", "divclass.cli", "factors-count", "--c", "6", "--field", "F3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1\n"
        assert "RepeatedFactorsWarning" in proc.stderr or "repeated" in proc.stderr.lower()


class Level(IntEnum):
    HIGH = 7


class Tag(str):
    def __str__(self):
        return "not the text"


class Row(list):
    pass


def test_report_writer_matches_json_dumps(capsys):
    def payload(big):
        """The test payload, with `big` applied to the ints of |v| >= 2^53."""
        return {
            "zeta": {},
            "alpha": [],
            "nested": {"b": [{}, [], [[]], {"y": {}, "x": []}], "a": {"only": None}},
            "ints": [0, -1, -(2**53) + 1, 2**53 - 1, big(2**53), big(-(2**53)), big(3**60)],
            "flags": [True, False, None],
            "text": [
                "", "plain", "\u00dcmlaut \u2211 \U0001f600", 'say "hi"', "back\\slash",
                "\x00\x1f\t\n\r\x7f",
            ],
            "tuple": (1, ("two", 3.5), (big(-(3**60)),)),
            # subclasses of str, int, dict and list are written as their base type
            "subclasses": Row([Level.HIGH, Tag("tag"), OrderedDict([("z", Row()), ("a", Tag())])]),
            "Upper": 1,
            "_under": 2,
            "10": 3,
            "9": 4,
        }

    cli._emit(payload(int))
    stringified = json.dumps(payload(str), sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == stringified
    for bad in ({"a": {1, 2}}, [object()], {"a": b"bytes"}):
        with pytest.raises(TypeError):
            json.dumps(bad)
        with pytest.raises(TypeError):
            cli._emit(bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["classgroup", "job.json"],
        ["verify", "job.json"],
        ["verify", "job.json", "--depth", "12"],
        ["verify", "--depth=-1", "job.json"],
        ["hilbert", "job.json", "--depth", "4"],
        ["hilbert", "job.json"],
        ["factors-count", "--c", "3", "--field", "Q"],
        ["factors-count", "--field", "F7", "--c=12"],
    ],
)
def test_main_builds_the_namespace_of_the_top_parser(argv):
    parser = build_arg_parser()
    sub = parser.subcommands[argv[0]]
    func = sub.get_default("func")
    seen = []
    sub.set_defaults(func=seen.append)
    try:
        main(argv)
        expected = parser.parse_args(argv)
    finally:
        sub.set_defaults(func=func)
    assert seen == [expected]
    assert expected.command == argv[0]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["verify", "--help"],
        ["factors-count", "-h"],
        ["verify"],
        ["classgroup"],
        ["verify", "job.json", "--depth", "x"],
        ["factors-count", "--c", "3"],
        ["frobnicate", "job.json"],
        ["classgroup", "job.json", "extra"],
        ["classgroup", "job.json", "--depth", "3"],
        ["--depth", "3", "verify", "job.json"],
    ],
)
def test_usage_and_errors_match_the_top_parser(argv, capsys):
    with pytest.raises(SystemExit) as direct:
        build_arg_parser().parse_args(argv)
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as through_main:
        main(argv)
    got = capsys.readouterr()
    assert (through_main.value.code, got.out, got.err) == (direct.value.code, want.out, want.err)
    assert want.out or want.err


def test_parser_is_built_once_per_process():
    assert build_arg_parser() is build_arg_parser()


def test_usage_errors_leave_the_shared_parser_usable(tmp_path, monkeypatch, capsys):
    golden = json.loads((Path(__file__).parent / "golden_reports.json").read_text())
    record = next(r for r in golden if r["name"] == "z3_x1x2-classgroup")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "job.json").write_text((JOBS.parent / record["job_file"]).read_text())
    for argv in (["verify"], ["verify", "job.json", "--depth", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(["classgroup", "job.json"]) == record["exit"] == 0
    assert capsys.readouterr().out == "\n".join(record["stdout"])


def test_import_builds_no_parser():
    script = (
        "import divclass.cli as cli\n"
        "print(cli.build_arg_parser.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout == "0\n", proc.stderr


def _error_of(argv, capsys):
    """Exit code and error code of one in-process CLI run."""
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)["error"]["code"]


@pytest.mark.parametrize(
    "overrides",
    [
        {"verify_depth": True},
        {"verify_depth": False},
        {"schema_version": True},
        {"schema_version": 1.0},
    ],
    ids=["depth-true", "depth-false", "schema-true", "schema-float"],
)
def test_job_file_rejects_bools_and_floats_for_integers(overrides, tmp_path, capsys):
    # true == 1 and 1.0 == 1 in Python; a job file must still spell them as
    # JSON integers
    with pytest.raises(JobFileError):
        JobFile.from_dict(base_job(**overrides))
    path = tmp_path / "job.json"
    path.write_text(json.dumps(base_job(**overrides)))
    for command in ("classgroup", "verify"):
        assert _error_of([command, str(path)], capsys) == (2, "JOB_FILE_ERROR")


@pytest.mark.parametrize("name", ["F0", "F0bar", "F07", "F07bar", "F٣", "F٣bar", "F4", "F1"])
def test_field_names_outside_q_and_prime_fp_are_rejected(name, tmp_path, capsys):
    # F0 used to run as Q, F07 as F7 and the Arabic-Indic digit F٣ as F3
    with pytest.raises(DegenerateInput):
        FieldSpec.parse(name)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(base_job(field=name)))
    assert _error_of(["classgroup", str(path)], capsys) == (2, "DEGENERATE_INPUT")
    argv = ["factors-count", "--c", "3", "--field", name]
    assert _error_of(argv, capsys) == (2, "DEGENERATE_INPUT")


@pytest.mark.parametrize(
    "name, char, closed",
    [("Q", 0, False), ("Qbar", 0, True), ("F2", 2, False), ("F7bar", 7, True), ("F101", 101, False)],
)
def test_field_names_q_and_prime_fp_are_accepted(name, char, closed):
    assert FieldSpec.parse(name) == FieldSpec(char, closed)
    assert str(FieldSpec.parse(name)) == name


def test_large_prime_fields_are_decided_at_once(tmp_path, capsys):
    # a 19-digit p is tested for primality in well under 10 ms; a 30-digit p
    # is above the bound of the exact test and is refused up front, in a job
    # file and in factors-count
    p19 = 10**18 + 3
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        assert FieldSpec.parse(f"F{p19}").char == p19
        timings.append(time.perf_counter() - started)
    assert min(timings) < 0.01
    name = f"F{10**29 + 319}"
    with pytest.raises(DegenerateInput, match="primality is decided only below"):
        FieldSpec.parse(name)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(base_job(field=name)))
    started = time.perf_counter()
    assert _error_of(["classgroup", str(path)], capsys) == (2, "DEGENERATE_INPUT")
    argv = ["factors-count", "--c", "3", "--field", name]
    assert _error_of(argv, capsys) == (2, "DEGENERATE_INPUT")
    assert time.perf_counter() - started < 1


def test_oversized_factor_degree_is_refused_before_certification(tmp_path, capsys):
    # each power is within the parser's exponent cap, their product is not
    path = tmp_path / "job.json"
    factor = "x1^1000*x1^1000*x1^1000 + 3*x2^1000*x2^1000*x2^1000"
    path.write_text(json.dumps(base_job(n=7, factors=[factor], assume_normal=False)))
    started = time.perf_counter()
    assert _error_of(["classgroup", str(path)], capsys) == (2, "SEARCH_SPACE_TOO_LARGE")
    assert time.perf_counter() - started < 1


def test_oversized_factor_is_refused_before_the_n1_tolerance(tmp_path, capsys):
    # for n = 1 a factor divisible by a variable is tolerated, not certified;
    # the work bound still comes first and refuses its reduction
    path = tmp_path / "job.json"
    factor = "x1^601 + x1*x2^600"
    path.write_text(json.dumps(base_job(n=1, factors=[factor], assume_normal=False)))
    assert _error_of(["classgroup", str(path)], capsys) == (2, "SEARCH_SPACE_TOO_LARGE")
    path.write_text(json.dumps(base_job(n=1, factors=["x1^3 + x1*x2^2"], assume_normal=False)))
    assert main(["classgroup", str(path)]) == 0
    assert "tolerated because n = 1" in capsys.readouterr().out


def test_oversized_monomial_model_is_refused(tmp_path, capsys, monkeypatch):
    # z^401 = x1 x2 passes with its model; z^707 = x1 x2 passes the graded
    # checks at depth 10 and its model would read 1415 * 707 lattice points,
    # above the limit; `principal_generator` is the scan, and a scan would
    # raise here
    path = tmp_path / "job.json"
    path.write_text(json.dumps(base_job(n=401)))
    assert main(["verify", str(path), "--depth", "10"]) == 0
    model = json.loads(capsys.readouterr().out)["verification"]["oracle"]["monomial_model"]
    assert (model["status"], model["order"]) == ("pass", 401)

    def unreachable(*args):
        raise AssertionError("the monomial model scanned past its work bound")

    monkeypatch.setattr(oracle.MonomialModel, "principal_generator", unreachable)
    path.write_text(json.dumps(base_job(n=5)))
    with pytest.raises(AssertionError, match="scanned past"):
        main(["verify", str(path), "--depth", "10"])
    capsys.readouterr()
    path.write_text(json.dumps(base_job(n=707)))
    assert main(["verify", str(path), "--depth", "10"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "SEARCH_SPACE_TOO_LARGE"
    assert "monomial model for n = 707" in error["message"]


def test_factors_count_bounds_c(capsys):
    # 2c is factored by trial division, so c above 10^12 is refused before
    # any factoring
    assert main(["factors-count", "--c", str(10**12), "--field", "Q"]) == 0
    assert capsys.readouterr().out == "13\n"
    argv = ["factors-count", "--c", str(10**12 + 1), "--field", "Q"]
    assert _error_of(argv, capsys) == (2, "SEARCH_SPACE_TOO_LARGE")


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "divclass.cli", *args],
        capture_output=True,
    )


def test_hilbert_into_a_closed_pipe_exits_quietly():
    # the reader takes 100 bytes of a table of about 8 MB and goes away:
    # the run still returns the table's verdict, with nothing on stderr
    args = ["hilbert", str(JOBS / "z3_x1x2.json"), "--depth", "300000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "divclass.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait() == 0
    assert stderr == b""


def test_subprocess_reports_are_byte_identical():
    job = str(JOBS / "z3_x1x2.json")
    first = _run_cli("classgroup", job)
    second = _run_cli("classgroup", job)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
    # stdout must parse as the canonical dump of its own content
    parsed = json.loads(first.stdout)
    canonical = json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    assert first.stdout.decode() == canonical


def test_subprocess_verify_deterministic():
    job = str(JOBS / "z3_x1x2.json")
    runs = [_run_cli("verify", job, "--depth", "25") for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].returncode == 0


def test_forms_over_q_run_without_sympy(tmp_path):
    # x1^4 + x2^4 reduces to t^4 + 1, which no prime certifies, so this also
    # runs the lifting path of q_irreducible
    job = tmp_path / "q_forms.json"
    job.write_text(
        json.dumps(base_job(n=5, factors=["x1^2 + 2*x2^2", "x1^4 + x2^4"]))
    )
    script = (
        "import sys\n"
        "from divclass.cli import main\n"
        f"codes = [main(['classgroup', {str(job)!r}]),"
        f" main(['verify', {str(job)!r}, '--depth', '10'])]\n"
        "print(codes, 'sympy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "[0, 0] False", proc.stderr


def test_classgroup_run_does_not_load_the_oracle():
    # `oracle` is imported only when a verify report is built.  `sections`
    # still loads with `cli`: perfbench/tracer.py's layer table names `cli`
    # as a binding of `verify_section_ring`
    job = str(JOBS / "z3_x1x2.json")
    script = (
        "import sys\n"
        "from divclass.cli import main\n"
        f"code = main(['classgroup', {job!r}])\n"
        "print(code, 'divclass.oracle' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


def _count_polynomial_work(monkeypatch) -> Counter:
    """Count calls of weighted_degree (on every module binding it), of
    WPolynomial products and powers, and of row canonicalizations."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    degree = wpoly.weighted_degree
    wrapped = counting("weighted_degree", degree)
    for name, module in list(sys.modules.items()):
        if name == "divclass" or name.startswith("divclass."):
            for attr, value in list(vars(module).items()):
                if value is degree:
                    monkeypatch.setattr(module, attr, wrapped)
    monkeypatch.setattr(WPolynomial, "__mul__", counting("__mul__", WPolynomial.__mul__))
    monkeypatch.setattr(WPolynomial, "__pow__", counting("__pow__", WPolynomial.__pow__))
    monkeypatch.setattr(
        Subspace, "canonical_row", staticmethod(counting("canonical_row", Subspace.canonical_row))
    )
    return counts


@pytest.mark.parametrize(
    "overrides, calls",
    [
        ({}, 3),
        ({"weights": [2, 2]}, 3),
        ({"x0": "x0"}, 7),
        ({"x0": "x0", "weights": [2, 2]}, 7),
        ({"x0": "x0", "g": "x1^3*x2 + x1*x2^3"}, 7),
    ],
    ids=["reduced", "rescaled", "x0", "x0-rescaled", "x0-declared-g"],
)
def test_classgroup_computes_each_factor_degree_once(overrides, calls, monkeypatch):
    # r = 3 factors: validate_factorization computes each degree and every
    # later stage reads them from the form; x0 mode also sums the given
    # factors' degrees to choose the weight of x0, then validates r + 1; a
    # declared g is checked by the pass that computes those r degrees
    counts = _count_polynomial_work(monkeypatch)
    job = base_job(factors=["x1", "x2", "x1^2 + x2^2"], n=5, **overrides)
    payload, code = run_job(JobFile.from_dict(job))
    assert code == 0, payload
    assert counts["weighted_degree"] == calls


@pytest.mark.parametrize(
    "job",
    [
        base_job(factors=["x1", "x2", "x1^2 + x2^2"]),  # mixed-conic-n3
        base_job(),  # z^3 = x1 x2
    ],
    ids=["forms", "monomial"],
)
def test_verify_polynomial_work_does_not_grow_with_depth(job, monkeypatch):
    # what depends only on the check (generator degrees and products with g,
    # factor powers, the canonical rows of generators and tails) is computed
    # once per check, never per degree
    counts = _count_polynomial_work(monkeypatch)
    seen = []
    for depth in (40, 80):
        counts.clear()
        payload, code = run_job(
            dataclasses.replace(JobFile.from_dict(job), verify_depth=depth), verify=True
        )
        assert code == 0
        assert payload["verification"]["status"] == "pass"
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["__mul__"] > 0 and seen[0]["weighted_degree"] > 0
    assert seen[0]["canonical_row"] > 0
