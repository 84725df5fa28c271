"""Job files, report payloads, exit codes, and byte-level determinism."""

import dataclasses
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from divclass import cli, wpoly
from divclass.cli import JobFile, build_arg_parser, main, run_job
from divclass.errors import JobFileError
from divclass.wpoly import WPolynomial

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

    def test_oracle_can_be_disabled(self):
        job = JobFile.from_dict(base_job(verify_depth=20, oracle=False))
        payload, code = run_job(job, verify=True)
        assert code == 0
        assert payload["verification"]["oracle"] is None
        assert payload["verification"]["status"] == "pass"

    def test_huge_group_order_serialized_as_string(self):
        n = 3**40  # odd, so coprime to m = 2, and the order tops 2^53
        job = JobFile.from_dict(base_job(n=n))
        payload, code = run_job(job)
        assert code == 0
        assert payload["class_group"]["order"] == str(n)
        assert payload["class_group"]["invariant_factors"] == [str(n)]

    def test_payload_is_reproducible(self):
        job = JobFile.from_dict(base_job(verify_depth=30))
        a = run_job(job, verify=True)
        b = run_job(job, verify=True)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


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


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "divclass.cli", *args],
        capture_output=True,
    )


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


def _count_polynomial_work(monkeypatch) -> Counter:
    """Count calls of weighted_degree (on every module binding it) and of
    WPolynomial products and powers."""
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
    return counts


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
    # factor powers) is computed once per check, never per degree
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
