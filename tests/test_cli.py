import json

import pytest

from balltrace.cli import main, parse_polynomial
from balltrace.errors import SchemaError
from balltrace.polynomials import SpherePolynomial

COUNTEREXAMPLE = '{"n": 2, "terms": [{"mu": [1, 1], "nu": [1, 1], "re": "1/1", "im": "0/1"}]}'
COORDINATE = '{"n": 2, "terms": [{"mu": [1, 0], "nu": [0, 0], "re": "1/1", "im": "0/1"}]}'

# exact stdout of `check` on the two documents above, pinned byte for byte
COORDINATE_CHECK = """{
  "member": true,
  "residual_sq": "0/1",
  "residual_sq_float": "0",
  "witness_extension": {
    "n": 2,
    "terms": [
      {
        "mu": [
          1,
          0
        ],
        "re": "1/1",
        "im": "0/1"
      }
    ]
  }
}
"""
COUNTEREXAMPLE_CHECK = """{
  "member": false,
  "residual_sq": "1/180",
  "residual_sq_float": "0.0055555555555555558",
  "violation": {
    "kind": "B",
    "alpha": [
      1,
      1
    ],
    "beta": [
      1,
      1
    ],
    "lhs": {
      "re": "1/5",
      "im": "0/1"
    },
    "rhs": {
      "re": "1/6",
      "im": "0/1"
    },
    "lhs_float": {
      "re": "0.20000000000000001",
      "im": "0"
    },
    "rhs_float": {
      "re": "0.16666666666666666",
      "im": "0"
    },
    "satisfied": false
  },
  "violation_order": 3
}
"""


@pytest.fixture
def counterexample_file(tmp_path):
    path = tmp_path / "counterexample.json"
    path.write_text(COUNTEREXAMPLE)
    return str(path)


@pytest.fixture
def coordinate_file(tmp_path):
    path = tmp_path / "coordinate.json"
    path.write_text(COORDINATE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePolynomial:
    def test_coordinate(self):
        f = parse_polynomial(COORDINATE)
        assert f == SpherePolynomial.monomial(2, (1, 0), (0, 0))

    def test_empty_terms(self):
        assert parse_polynomial('{"n": 2, "terms": []}').is_zero()

    def test_inconsistent_dimension(self):
        bad = '{"n": 2, "terms": [{"mu": [1], "nu": [0, 0], "re": "1/1", "im": "0/1"}]}'
        with pytest.raises(SchemaError):
            parse_polynomial(bad)

    def test_malformed_json_reports_location(self):
        with pytest.raises(SchemaError) as err:
            parse_polynomial('{"n": 2, "terms": [}')
        assert "line" in str(err.value)


class TestCheckCommand:
    def test_escalation_from_order_zero(self, capsys, tmp_path):
        path = tmp_path / "conj140.json"
        path.write_text('{"n": 1, "terms": [{"mu": [0], "nu": [140], "re": "1/1", "im": "0/1"}]}')
        code, out, err = run(capsys, "check", "--input", str(path), "--sweep-order", "0")
        assert code == 0 and err == ""
        assert json.loads(out)["violation_order"] == 141

    def test_counterexample(self, capsys, counterexample_file):
        code, out, _ = run(capsys, "check", "--input", counterexample_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["member"] is False
        assert doc["violation"]["lhs"]["re"] == "1/5"
        assert doc["violation"]["rhs"]["re"] == "1/6"

    def test_member_with_witness(self, capsys, coordinate_file):
        code, out, _ = run(capsys, "check", "--input", coordinate_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["member"] is True
        assert doc["witness_extension"]["terms"] == [{"mu": [1, 0], "re": "1/1", "im": "0/1"}]

    def test_member_stdout_bytes(self, capsys, coordinate_file):
        assert run(capsys, "check", "--input", coordinate_file) == (0, COORDINATE_CHECK, "")

    def test_counterexample_stdout_bytes(self, capsys, counterexample_file):
        assert run(capsys, "check", "--input", counterexample_file) == (0, COUNTEREXAMPLE_CHECK, "")

    def test_byte_stable(self, capsys, counterexample_file):
        _, first, _ = run(capsys, "check", "--input", counterexample_file)
        _, second, _ = run(capsys, "check", "--input", counterexample_file)
        assert first == second

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(COORDINATE))
        code, out, _ = run(capsys, "check", "--input", "-")
        assert code == 0 and json.loads(out)["member"] is True


class TestConstantsCommand:
    def test_n2_order2_has_six_rows(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "2", "--order", "2")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["constants"]) == 6
        by_omega = {tuple(row["omega"]): row["value"] for row in doc["constants"]}
        assert by_omega[(1, 1)] == "1/6"

    def test_n1_all_ones(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "1", "--order", "10")
        doc = json.loads(out)
        assert all(row["value"] == "1/1" for row in doc["constants"])

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "2", "--order", "1", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "omega,value,value_float"
        assert len(lines) == 4


class TestMomentCommand:
    def test_counterexample_moment(self, capsys, counterexample_file):
        code, out, _ = run(
            capsys, "moment", "--input", counterexample_file, "--alpha", "1,1", "--beta", "1,1"
        )
        assert code == 0
        assert json.loads(out)["moment"]["re"] == "1/30"


class TestSweepCommand:
    def test_counterexample_sweep(self, capsys, counterexample_file):
        code, out, _ = run(capsys, "sweep", "--input", counterexample_file, "--order", "2")
        doc = json.loads(out)
        assert code == 0 and doc["count"] >= 1
        pairs = {(tuple(v["alpha"]), tuple(v["beta"])) for v in doc["violations"]}
        assert ((1, 1), (1, 1)) in pairs

    def test_member_sweep_empty(self, capsys, coordinate_file):
        code, out, _ = run(capsys, "sweep", "--input", coordinate_file, "--order", "4")
        assert code == 0 and json.loads(out)["count"] == 0


class TestRadialScanCommand:
    def test_header_and_determinism(self, capsys, coordinate_file):
        args = (
            "radial-scan", "--input", coordinate_file, "--p", "2", "--radii", "0.5,0.9",
            "--seed", "3", "--samples", "2000",
        )
        code, first, _ = run(capsys, *args)
        assert code == 0
        assert first.splitlines()[0] == "r,p,lp_error,lp_error_stderr,lp_norm_r,samples,seed"
        assert len(first.splitlines()) == 3
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_output_file(self, capsys, coordinate_file, tmp_path):
        dest = tmp_path / "scan.csv"
        code, out, _ = run(
            capsys, "radial-scan", "--input", coordinate_file, "--radii", "0.5",
            "--samples", "500", "--output", str(dest),
        )
        assert code == 0 and out == ""
        assert dest.read_text().startswith("r,p,lp_error")


class TestVerifyCommand:
    def test_small_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--seed", "7", "--samples", "20000")
        assert code == 0
        assert "passed 5/5 checks" in out
        assert all(line.startswith(("ok", "passed")) for line in out.strip().splitlines())


class TestRunConfig:
    def test_invariants_enforced(self):
        from balltrace.cli import RunConfig
        from balltrace.errors import DomainError, PreconditionError

        with pytest.raises(PreconditionError):
            RunConfig(command="radial-scan", samples=1)
        with pytest.raises(DomainError):
            RunConfig(command="radial-scan", radii=(0.5, 1.0))
        for p in (0.5, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                RunConfig(command="radial-scan", p=p)
        RunConfig(command="check")  # defaults are valid

    def test_too_few_samples_exit_code(self, capsys, coordinate_file):
        code, _, err = run(
            capsys, "radial-scan", "--input", coordinate_file, "--samples", "1"
        )
        assert code == 2


class TestExitCodes:
    def test_missing_file_is_io(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--input", str(tmp_path / "nope.json"))
        assert code == 4
        assert json.loads(err)["error"]["exit_code"] == 4

    def test_bad_flags_is_usage(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 1

    def test_schema_error_is_usage(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        # JSON true is an int to isinstance; n must be a JSON integer
        as_n1 = '{"n": true, "terms": [{"mu": [1], "nu": [0], "re": "1/1", "im": "0/1"}]}'
        for text in ('{"n": 2}', as_n1):
            path.write_text(text)
            code, out, err = run(capsys, "check", "--input", str(path))
            assert code == 1 and out == ""
            assert json.loads(err)["error"]["type"] == "SchemaError"

    def test_domain_error_is_precondition(self, capsys, coordinate_file):
        for p in ("0.5", "nan", "inf"):
            code, out, err = run(
                capsys, "radial-scan", "--input", coordinate_file, "--p", p, "--samples", "100"
            )
            assert code == 2 and out == ""
            assert json.loads(err)["error"]["type"] == "DomainError"

    def test_unknown_command_is_usage(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    @pytest.mark.parametrize(
        "term",
        [
            '{"mu": [1, 0], "nu": [0, 0], "re": 1.5, "im": "0/1"}',
            '{"mu": [true, 0], "nu": [0, 0], "re": "1/1", "im": "0/1"}',
        ],
    )
    def test_bad_term_is_schema_error(self, capsys, tmp_path, term):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "terms": [%s]}' % term)
        code, _, err = run(capsys, "check", "--input", str(path))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--sweep-order", "-1"),
            ("sweep", "--order", "-1"),
            ("radial-scan", "--radii", ","),
        ],
    )
    def test_bad_orders_and_radii_are_usage(self, capsys, coordinate_file, argv):
        code, _, err = run(capsys, argv[0], "--input", coordinate_file, *argv[1:])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_negative_constants_order_is_usage(self, capsys):
        assert run(capsys, "constants", "--n", "2", "--order", "-1")[0] == 1

    def test_negative_seed_wraps_like_the_sampler(self, capsys):
        # seeds are taken mod 2^64, as sphere chunks take them
        code, wrapped, _ = run(capsys, "verify", "--n", "1", "--seed", "-1", "--samples", "2000")
        assert code == 0
        _, unsigned, _ = run(
            capsys, "verify", "--n", "1", "--seed", str(2**64 - 1), "--samples", "2000"
        )
        assert wrapped == unsigned
