import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from balltrace import cli, errors
from balltrace.cli import main, parse_polynomial
from balltrace.errors import SchemaError
from balltrace.membership import is_boundary_trace
from balltrace.multiindex import MultiIndex
from balltrace.polynomials import SpherePolynomial

from certcheck import problems

COUNTEREXAMPLE = '{"n": 2, "terms": [{"mu": [1, 1], "nu": [1, 1], "re": "1/1", "im": "0/1"}]}'
COORDINATE = '{"n": 2, "terms": [{"mu": [1, 0], "nu": [0, 0], "re": "1/1", "im": "0/1"}]}'
THOUSAND_Z1_ZBAR2 = '{"n": 2, "terms": [{"mu": [1, 0], "nu": [0, 1], "re": "1000/1", "im": "0/1"}]}'

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

# exact stdout of `sweep --order 2` on the counterexample, and of
# `check --sweep-order 0` on conj(zeta_1)^140, which escalates to order 141
COUNTEREXAMPLE_SWEEP_2 = """{
  "order": 2,
  "count": 3,
  "violations": [
    {
      "kind": "B",
      "alpha": [
        2,
        0
      ],
      "beta": [
        2,
        0
      ],
      "lhs": {
        "re": "3/20",
        "im": "0/1"
      },
      "rhs": {
        "re": "1/6",
        "im": "0/1"
      },
      "lhs_float": {
        "re": "0.14999999999999999",
        "im": "0"
      },
      "rhs_float": {
        "re": "0.16666666666666666",
        "im": "0"
      },
      "satisfied": false
    },
    {
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
    {
      "kind": "B",
      "alpha": [
        0,
        2
      ],
      "beta": [
        0,
        2
      ],
      "lhs": {
        "re": "3/20",
        "im": "0/1"
      },
      "rhs": {
        "re": "1/6",
        "im": "0/1"
      },
      "lhs_float": {
        "re": "0.14999999999999999",
        "im": "0"
      },
      "rhs_float": {
        "re": "0.16666666666666666",
        "im": "0"
      },
      "satisfied": false
    }
  ]
}
"""
CONJ140 = '{"n": 1, "terms": [{"mu": [0], "nu": [140], "re": "1/1", "im": "0/1"}]}'
CONJ140_CHECK_ORDER_0 = """{
  "member": false,
  "residual_sq": "1/1",
  "residual_sq_float": "1",
  "violation": {
    "kind": "A",
    "alpha": [
      140
    ],
    "beta": [
      0
    ],
    "lhs": {
      "re": "1/1",
      "im": "0/1"
    },
    "rhs": {
      "re": "0/1",
      "im": "0/1"
    },
    "lhs_float": {
      "re": "1",
      "im": "0"
    },
    "rhs_float": {
      "re": "0",
      "im": "0"
    },
    "satisfied": false
  },
  "violation_order": 141
}
"""

# mixed n = 2 data: 1/2 zeta_1 + (1 - i/3) zeta_1 conj(zeta_2) + 2i zeta_1^2 zeta_2 conj(zeta_1)
MIXED2 = (
    '{"n": 2, "terms": [{"mu": [1, 0], "nu": [0, 0], "re": "1/2", "im": "0/1"}, '
    '{"mu": [1, 0], "nu": [0, 1], "re": "1/1", "im": "-1/3"}, '
    '{"mu": [2, 1], "nu": [1, 0], "re": "0/1", "im": "2/1"}]}'
)

# exact stdout of `radial-scan` on COORDINATE and MIXED2, pinned byte for byte;
# the per-radius route (reference_radial_rows) differs by at most 3e-16 relative
COORDINATE_RADIAL = (
    "r,p,lp_error,lp_error_stderr,lp_norm_r,samples,seed\n"
    "0.5,2,0.35586004807848864,0.0022674234000518625,0.35586004211291977,2000,3\n"
    "0.90000000000000002,2,0.071172009622105403,0.00045348468005120018,0.64054808056930301,2000,3\n"
)
MIXED2_RADIAL = (
    "r,p,lp_error,lp_error_stderr,lp_norm_r,samples,seed\n"
    "0.29999999999999999,2,0.62001916398156742,0.007345785402417879,0.11471181247658692,2000,5\n"
    "0.5,2,0.52239746815292654,0.0060742732287353716,0.21731693817886402,2000,5\n"
    "0.69999999999999996,2,0.38307079348066531,0.0043369609574958204,0.35623546274002243,2000,5\n"
)


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

    def test_escalation_stdout_bytes(self, capsys, tmp_path):
        path = tmp_path / "conj140.json"
        path.write_text(CONJ140)
        assert run(capsys, "check", "--input", str(path), "--sweep-order", "0") == (
            0, CONJ140_CHECK_ORDER_0, ""
        )

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


class TestModuleEntryPoint:
    """`python -m balltrace` in a child process, through balltrace/__main__.py."""

    @staticmethod
    def run_module(*argv, stdin):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", "balltrace", *argv],
            input=stdin, capture_output=True, text=True, env=env, timeout=120,
        )

    def test_check_reads_stdin(self):
        proc = self.run_module("check", "--input", "-", stdin=COUNTEREXAMPLE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == COUNTEREXAMPLE_CHECK
        doc = json.loads(proc.stdout)
        assert doc["member"] is False
        assert doc["violation"]["lhs"]["re"] == "1/5" and doc["violation"]["rhs"]["re"] == "1/6"

    def test_high_dimension_check_decides_quickly(self):
        # conj(zeta_1) in n = 2000: 2001 pairs, each index's multinomial taken from its parts
        # (8.6 s when the scan decoded each one from its radix code with n divisions)
        n = 2000
        doc = {"n": n, "terms": [{"mu": [0] * n, "nu": [1] + [0] * (n - 1), "re": "1/1", "im": "0/1"}]}
        start = time.perf_counter()
        proc = self.run_module("check", "--input", "-", stdin=json.dumps(doc))
        assert proc.returncode == 0 and proc.stderr == "" and time.perf_counter() - start < 3.0
        cert = json.loads(proc.stdout)
        assert cert["member"] is False and cert["violation_order"] == 2

    def test_malformed_document_is_one_json_line(self):
        proc = self.run_module("check", "--input", "-", stdin='{"n": 2, "terms": [}')
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "SchemaError"


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

    def test_over_budget_exits_2_before_enumerating(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "graded_indices", None)  # never enumerated
        code, out, err = run(capsys, "constants", "--n", "3", "--order", "150")
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "PreconditionError" and "585276 rows" in line

    def test_high_dimension(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "2000", "--order", "0")
        assert code == 0
        assert json.loads(out)["constants"] == [
            {"omega": [0] * 2000, "value": "1/1", "value_float": "1"}
        ]

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

    def test_counterexample_sweep_stdout_bytes(self, capsys, counterexample_file):
        assert run(capsys, "sweep", "--input", counterexample_file, "--order", "2") == (
            0, COUNTEREXAMPLE_SWEEP_2, ""
        )

    def test_high_dimension(self, capsys, tmp_path):
        # conj(zeta_1) in n = 2000: 1 pair at order 1, (alpha, beta) = (e_1, 0)
        path = tmp_path / "conj1.json"
        n = 2000
        term = {"mu": [0] * n, "nu": [1] + [0] * (n - 1), "re": "1/1", "im": "0/1"}
        path.write_text(json.dumps({"n": n, "terms": [term]}))
        code, out, err = run(capsys, "sweep", "--input", str(path), "--order", "1")
        assert code == 0 and err == ""
        (violation,) = json.loads(out)["violations"]
        assert violation["alpha"] == term["nu"] and violation["beta"] == term["mu"]

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

    def test_coordinate_stdout_bytes(self, capsys, coordinate_file):
        args = ("--p", "2", "--radii", "0.5,0.9", "--seed", "3", "--samples", "2000")
        assert run(capsys, "radial-scan", "--input", coordinate_file, *args) == (
            0, COORDINATE_RADIAL, ""
        )

    def test_mixed_stdout_bytes(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(MIXED2)
        args = ("--radii", "0.3,0.5,0.7", "--seed", "5", "--samples", "2000")
        assert run(capsys, "radial-scan", "--input", str(path), *args) == (0, MIXED2_RADIAL, "")

    def test_unparsable_radius_is_usage(self, capsys, coordinate_file):
        code, out, err = run(capsys, "radial-scan", "--input", coordinate_file, "--radii", "a,b")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_zero_data_has_zero_error(self, capsys, tmp_path):
        # mean |f_r - f|^p is exactly 0, so the Lp estimate takes its m == 0 branch
        path = tmp_path / "zero.json"
        path.write_text('{"n": 2, "terms": []}')
        args = ("--radii", "0.5", "--samples", "100")
        assert run(capsys, "radial-scan", "--input", str(path), *args) == (
            0, "r,p,lp_error,lp_error_stderr,lp_norm_r,samples,seed\n0.5,2,0,0,0,100,0\n", ""
        )

    @pytest.mark.filterwarnings("error")  # a stray RuntimeWarning would end the run with exit 5
    @pytest.mark.parametrize(
        "doc, args",
        [
            (THOUSAND_Z1_ZBAR2, ("--p", "100", "--radii", "0.5,0.9")),  # the stderr overflows
            (THOUSAND_Z1_ZBAR2, ("--p", "1000", "--radii", "0.5,0.9")),  # the mean overflows
            (COUNTEREXAMPLE, ("--p", "1000", "--radii", "0.5")),  # the mean underflows to 0
        ],
    )
    def test_lp_estimate_past_float_range_is_one_json_error(self, capsys, tmp_path, doc, args):
        path = tmp_path / "f.json"
        path.write_text(doc)
        code, out, err = run(capsys, "radial-scan", "--input", str(path), *args, "--samples", "1000")
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "NumericalError"

    def test_constant_data_has_zero_error_at_large_p(self, capsys, tmp_path):
        # |slice - f|^p is exactly 0 everywhere: no underflow, so no error
        path = tmp_path / "constant.json"
        path.write_text('{"n": 2, "terms": [{"mu": [0, 0], "nu": [0, 0], "re": "3/5", "im": "4/5"}]}')
        code, out, err = run(
            capsys, "radial-scan", "--input", str(path), "--p", "1000", "--radii", "0.5,0.9", "--samples", "100"
        )
        assert code == 0 and err == ""
        assert [row.split(",")[2:4] for row in out.splitlines()[1:]] == [["0", "0"], ["0", "0"]]

    @pytest.mark.parametrize("n, r", [(300, 0.9), (1000, 0.5), (1000, 0.9)])
    def test_high_dimension_ends_finite_or_in_one_json_error(self, n, r):
        # in a child process, since numpy's RuntimeWarnings bypass capsys
        term = {"mu": [0] * n, "nu": [1] + [0] * (n - 1), "re": "1/1", "im": "0/1"}
        proc = TestModuleEntryPoint.run_module(
            "radial-scan", "--input", "-", "--radii", str(r), "--samples", "100",
            stdin=json.dumps({"n": n, "terms": [term]}),
        )
        if proc.returncode == 0:
            assert proc.stderr == ""
            (row,) = proc.stdout.splitlines()[1:]
            _, _, lp_error, _, lp_norm_r, _, _ = map(float, row.split(","))
            # P[conj(zeta_1)](r zeta) = r conj(zeta_1): both are the sample L2 norm of f
            assert math.isfinite(lp_error) and math.isfinite(lp_norm_r)
            assert lp_norm_r / r == pytest.approx(lp_error / (1 - r), rel=1e-6)
        else:
            assert proc.returncode == 3 and proc.stdout == ""
            (line,) = proc.stderr.splitlines()
            assert json.loads(line)["error"]["type"] == "ConvergenceError"

    def test_coefficient_past_float_range_is_one_json_error(self, capsys, tmp_path):
        # exact data parses; the float side cannot hold a 401-digit coefficient
        path = tmp_path / "huge.json"
        term = {"mu": [1, 0], "nu": [0, 1], "re": "1" + "0" * 400 + "/1", "im": "0/1"}
        path.write_text(json.dumps({"n": 2, "terms": [term]}))
        assert run(capsys, "radial-scan", "--input", str(path)) == (
            3,
            "",
            '{"error": {"type": "OverflowError", "message": '
            '"integer division result too large for a float", "exit_code": 3}}\n',
        )

    def test_output_file(self, capsys, coordinate_file, tmp_path):
        dest = tmp_path / "scan.csv"
        code, out, _ = run(
            capsys, "radial-scan", "--input", coordinate_file, "--radii", "0.5",
            "--samples", "500", "--output", str(dest),
        )
        assert code == 0 and out == ""
        assert dest.read_text().startswith("r,p,lp_error")


class TestOutputFile:
    def test_shorter_payload_over_a_longer_file_leaves_the_payload(self, capsys, coordinate_file, tmp_path):
        dest = tmp_path / "cert.json"
        dest.write_text("x" * 10_000)
        code, out, err = run(capsys, "check", "--input", coordinate_file, "--output", str(dest))
        assert (code, out, err) == (0, "", "")
        assert dest.read_text() == COORDINATE_CHECK

    def test_dev_null_exits_0(self, capsys, coordinate_file):
        code, out, err = run(capsys, "check", "--input", coordinate_file, "--output", os.devnull)
        assert (code, out, err) == (0, "", "")

    def test_unwritable_path_is_io(self, capsys, coordinate_file, tmp_path):
        (tmp_path / "plain").write_text("")
        code, out, err = run(capsys, "check", "--input", coordinate_file, "--output", str(tmp_path / "plain" / "x"))
        assert code == 4 and out == ""
        assert json.loads(err)["error"]["type"] == "NotADirectoryError"

    def test_failed_write_leaves_only_the_bytes_written(self, tmp_path):
        # a file-size limit of 1000 bytes fails the write of a longer payload part way,
        # over an old file of 5000 bytes: the old file's tail must not survive
        dest = tmp_path / "table.json"
        dest.write_text("x" * 5000)
        child = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (1000, 1000))\n"
            "from balltrace.cli import main\n"
            f"sys.exit(main(['constants', '--n', '2', '--order', '6', '--output', {str(dest)!r}]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        assert proc.returncode == 4 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"]["type"] == "OSError"
        written = dest.read_text()
        assert 0 < len(written) <= 1000 and "x" not in written
        assert main(["constants", "--n", "2", "--order", "6", "--output", str(tmp_path / "full.json")]) == 0
        full = (tmp_path / "full.json").read_text()
        assert len(full) > 1000 and full.startswith(written)


class TestVerifyCommand:
    def test_small_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--seed", "7", "--samples", "20000")
        assert code == 0
        assert "passed 5/5 checks" in out
        assert all(line.startswith(("ok", "passed")) for line in out.strip().splitlines())

    def test_poisson_check_passes_in_high_dimension(self, capsys):
        # a ball point with |z| <= 1/n keeps the Poisson kernel's peak at most 9;
        # at |z| <= 1/2 it reached 3^30 and this Poisson line failed
        code, out, _ = run(capsys, "verify", "--n", "30", "--seed", "7", "--samples", "2000")
        assert code == 0
        assert "passed 5/5 checks" in out


class TestParser:
    def test_built_once_per_process(self, capsys, coordinate_file):
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert run(capsys, "check", "--input", coordinate_file)[0] == 0
        assert cli.build_parser.cache_info().misses == 1

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["verify"], cli.RunConfig(command="verify", n=2)),
            (["radial-scan", "--input", "f.json"],
             cli.RunConfig(command="radial-scan", input_path="f.json", radii=(0.5, 0.9, 0.99))),
            (["check", "--input", "f.json"], cli.RunConfig(command="check", input_path="f.json")),
            (["constants", "--n", "3", "--order", "2"], cli.RunConfig(command="constants", n=3, order=2)),
        ],
    )
    def test_omitted_flags_take_runconfig_defaults(self, argv, expected):
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        assert config == expected
        assert (config.order, config.seed, config.samples, config.p, config.output, config.fmt) == (
            expected.order, 0, 100_000, 2.0, None, "json"
        )

    def test_every_flag_is_a_runconfig_field(self):
        fields = set(cli.RunConfig.__dataclass_fields__)
        (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        assert set(commands.choices) == set(cli._COMMANDS)
        for sub in commands.choices.values():
            assert {a.dest for a in sub._actions if a.dest != "help"} <= fields

    def test_converted_flags(self):
        args = cli.build_parser().parse_args(
            ["moment", "--input", "f.json", "--alpha", "1,0", "--beta", "2,1"]
        )
        config = cli.config_from_args(args)
        assert (config.alpha, config.beta) == (MultiIndex((1, 0)), MultiIndex((2, 1)))
        args = cli.build_parser().parse_args(["radial-scan", "--input", "-", "--radii", "0.3,,0.7,"])
        assert cli.config_from_args(args).radii == (0.3, 0.7)


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


# the documented exit code of every exception class in balltrace.errors
EXPECTED_EXIT_CODES = {
    "BalltraceError": 1,
    "UsageError": 1,
    "SchemaError": 1,
    "PreconditionError": 2,
    "DimensionMismatchError": 2,
    "DominationError": 2,
    "DomainError": 2,
    "NumericalError": 3,
    "SingularityError": 3,
    "DivergenceError": 3,
    "ConvergenceError": 3,
    "EvaluationError": 3,
}
_ERROR_CLASSES = [
    obj for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, errors.BalltraceError)
]


def test_every_error_class_has_an_expected_code():
    assert {t.__name__ for t in _ERROR_CLASSES} == set(EXPECTED_EXIT_CODES)


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
        deep = "[" * 100_000 + "]" * 100_000  # past the JSON decoder's recursion limit
        for text in ('{"n": 2}', as_n1, deep):
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

    @pytest.mark.parametrize("exc", [RuntimeError("contradicts the moment characterization"), MemoryError()])
    def test_other_exceptions_are_internal(self, capsys, monkeypatch, counterexample_file, exc):
        def broken(config):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "check", broken)
        code, out, err = run(capsys, "check", "--input", counterexample_file)
        assert code == cli.EXIT_INTERNAL == 5 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == {
            "type": type(exc).__name__, "message": str(exc), "exit_code": 5,
        }

    @pytest.mark.parametrize("exc_type", _ERROR_CLASSES, ids=lambda t: t.__name__)
    def test_every_error_class_has_its_code(self, capsys, monkeypatch, counterexample_file, exc_type):
        def broken(config):
            raise exc_type("raised on purpose")

        monkeypatch.setitem(cli._COMMANDS, "check", broken)
        code, out, err = run(capsys, "check", "--input", counterexample_file)
        expected = EXPECTED_EXIT_CODES[exc_type.__name__]
        assert code == expected and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == {
            "type": exc_type.__name__, "message": "raised on purpose", "exit_code": expected,
        }

    def test_keyboard_interrupt_propagates(self, monkeypatch, counterexample_file):
        def interrupted(config):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "check", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["check", "--input", counterexample_file])

    def test_over_budget_scan_exits_2_quickly(self, capsys, monkeypatch, tmp_path):
        from balltrace import membership

        monkeypatch.setattr(membership, "graded_indices", None)  # never enumerated
        # conj(zeta_1) + |zeta_2|^200 in n = 3 scans 358955 pairs at order 101
        path = tmp_path / "conj_shell.json"
        path.write_text(json.dumps({"n": 3, "terms": [
            {"mu": [0, 0, 0], "nu": [1, 0, 0], "re": "1/1", "im": "0/1"},
            {"mu": [0, 100, 0], "nu": [0, 100, 0], "re": "1/1", "im": "0/1"},
        ]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--input", str(path))
        assert code == 2 and out == "" and time.perf_counter() - start < 1.0
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "PreconditionError" and "358955" in line

    def test_low_sweep_order_is_refused_like_the_default(self, capsys, monkeypatch, tmp_path):
        from balltrace import membership

        monkeypatch.setattr(membership, "graded_indices", None)  # never enumerated
        # conj(zeta_1) + |zeta_1|^96 in n = 4 is violated from order 1, but that order is
        # read off the scan at max_degree + 1 = 49, which holds 563550 pairs
        path = tmp_path / "conj_shell.json"
        path.write_text(json.dumps({"n": 4, "terms": [
            {"mu": [0, 0, 0, 0], "nu": [1, 0, 0, 0], "re": "1/1", "im": "0/1"},
            {"mu": [48, 0, 0, 0], "nu": [48, 0, 0, 0], "re": "1/1", "im": "0/1"},
        ]}))
        refusals = []
        for argv in ((), ("--sweep-order", "0")):
            code, out, err = run(capsys, "check", "--input", str(path), *argv)
            assert code == 2 and out == ""
            (line,) = err.splitlines()
            refusals.append(json.loads(line)["error"])
        assert refusals[0] == refusals[1] and refusals[0]["type"] == "PreconditionError"
        assert "at order 49 in dimension 4 would test 563550 pairs" in refusals[0]["message"]

    def test_huge_decimal_exponent_is_schema_error_quickly(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 1, "terms": [{"mu": [1], "nu": [0], "re": "1e9999999", "im": "0/1"}]}')
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--input", str(path))
        assert code == 1 and out == "" and time.perf_counter() - start < 1.0
        assert json.loads(err)["error"]["type"] == "SchemaError"

    def test_huge_exponent_member_exits_0(self, capsys, tmp_path):
        # zeta_1^(10^6) in n = 1 is holomorphic: its own witness
        path = tmp_path / "huge_power.json"
        path.write_text('{"n": 1, "terms": [{"mu": [1000000], "nu": [0], "re": "1/1", "im": "0/1"}]}')
        code, out, _ = run(capsys, "check", "--input", str(path))
        assert code == 0
        cert = json.loads(out)
        assert cert["member"] is True
        assert cert["witness_extension"]["terms"] == [{"mu": [1000000], "re": "1/1", "im": "0/1"}]

    def test_exact_values_past_the_digit_limit_render(self, capsys, tmp_path):
        # zeta_1 zeta_2 conj(zeta_1 zeta_2) with coefficient 10^4299 / (10^4299 + 1)
        num, den = "1" + "0" * 4299, "1" + "0" * 4298 + "1"
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 2, "terms": [
            {"mu": [1, 1], "nu": [1, 1], "re": f"{num}/{den}", "im": "0/1"}
        ]}))
        code, out, err = run(capsys, "check", "--input", str(path))
        assert code == 0 and err == ""
        # int(str) has the digit limit, Decimal does not
        top, bottom = json.loads(out)["residual_sq"].split("/")
        expected = is_boundary_trace(parse_polynomial(path.read_text())).residual_sq
        assert Fraction(int(Decimal(top)), int(Decimal(bottom))) == expected

    def test_float_rendering_overflow_is_numerical(self, capsys, tmp_path):
        path = tmp_path / "nines.json"
        path.write_text(json.dumps({"n": 2, "terms": [
            {"mu": [1, 1], "nu": [1, 1], "re": "9" * 4299 + "/7", "im": "0/1"}
        ]}))
        code, out, err = run(capsys, "check", "--input", str(path))
        assert code == 3 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "OverflowError"

    def test_verify_over_budget_exits_2_quickly(self, capsys, monkeypatch):
        from balltrace import generators, membership

        for module in (cli, generators, membership):
            monkeypatch.setattr(module, "graded_indices", None)  # never enumerated
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--n", "2000", "--samples", "100")
        assert code == 2 and out == "" and time.perf_counter() - start < 1.0
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "PreconditionError" and "1337337001" in line

    @pytest.mark.parametrize("command", ["verify", "radial-scan"])
    def test_sample_budget_exits_2_before_drawing(self, capsys, monkeypatch, coordinate_file, command):
        monkeypatch.setattr(cli, "SphereSampler", None)  # never drawn
        source = ["--input", coordinate_file] if command == "radial-scan" else []
        start = time.perf_counter()
        code, out, err = run(capsys, command, *source, "--samples", str(10**12))
        assert code == 2 and out == "" and time.perf_counter() - start < 1.0
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "PreconditionError" and "2000000000000" in line

    def test_sample_budget_counts_coordinates(self):
        cli._check_samples(cli.SAMPLE_BUDGET // 4, 4)
        with pytest.raises(errors.PreconditionError):
            cli._check_samples(cli.SAMPLE_BUDGET // 4 + 1, 4)

    @pytest.mark.parametrize(
        "argv",
        [
            ("check",),  # conj(zeta_1)^(10^7): 2 pairs at order 10^7 + 1 on about 4.6e8-bit integers
            ("sweep", "--order", "120000"),
        ],
    )
    def test_huge_integer_scans_exit_2_quickly(self, capsys, monkeypatch, tmp_path, argv):
        from balltrace import membership

        monkeypatch.setattr(membership, "graded_indices", None)  # never enumerated
        path = tmp_path / "conj.json"
        nu = 10**7 if argv[0] == "check" else 1
        path.write_text('{"n": 1, "terms": [{"mu": [0], "nu": [%d], "re": "1/1", "im": "0/1"}]}' % nu)
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], "--input", str(path), *argv[1:])
        assert code == 2 and out == "" and time.perf_counter() - start < 1.0
        (line,) = err.splitlines()
        assert json.loads(line)["error"]["type"] == "PreconditionError" and "bits" in line

    def test_one_term_scan_is_charged_for_pairs_only(self, capsys, tmp_path):
        # conj(zeta_1)^4000 in n = 1: 2 pairs on integers of about 92000 bits,
        # charged as 46 * 46 = 2116 units; charging the K = 8001 weights as well refused it
        path = tmp_path / "conj4000.json"
        path.write_text('{"n": 1, "terms": [{"mu": [0], "nu": [4000], "re": "1/1", "im": "0/1"}]}')
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--input", str(path))
        assert code == 0 and err == "" and time.perf_counter() - start < 1.0
        assert json.loads(out)["violation_order"] == 4001

    @pytest.mark.parametrize("n, m", [(3, 400), (1, 20000)])
    def test_high_degree_one_term_check_exits_0(self, capsys, tmp_path, n, m):
        # conj(zeta_1)^m has one line, whose box at order m + 1 holds 4 and 2
        # pairs; C(order + n, n) candidates (10908404 for n = 3) refused both
        path = tmp_path / "conj.json"
        nu = [m] + [0] * (n - 1)
        path.write_text(json.dumps({"n": n, "terms": [{"mu": [0] * n, "nu": nu, "re": "1/1", "im": "0/1"}]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--input", str(path))
        assert code == 0 and err == "" and time.perf_counter() - start < 5.0
        cert = json.loads(out)
        assert cert["member"] is False and cert["violation_order"] == m + 1
        assert cert["violation"]["alpha"] == nu and cert["violation"]["beta"] == [0] * n

    @pytest.mark.parametrize(
        "nus, argv",
        [
            (range(9940, 10001), ()),  # 1952 violations, M of about 257000 bits
            ((1,), ("--sweep-order", "3000")),  # 3000 violations, M of about 30000 bits
        ],
    )
    def test_many_violations_on_huge_integers_rank_quickly(self, capsys, tmp_path, nus, argv):
        # sum of conj(zeta_1)^j in n = 1: L = 1, so the pairs rank on s = S / M, not on S
        doc = {"n": 1, "terms": [{"mu": [0], "nu": [j], "re": "1/1", "im": "0/1"} for j in nus]}
        path = tmp_path / "conj_sum.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--input", str(path), *argv)
        assert code == 0 and err == "" and time.perf_counter() - start < 2.0
        cert = json.loads(out)
        assert cert["member"] is False and problems(doc, cert) == []

    @pytest.mark.parametrize("nus, seconds", [((20000,), 5.0), (range(9940, 10001), 2.0)])
    def test_high_degree_check_memory_is_bounded(self, capsys, tmp_path, nus, seconds):
        # sum of conj(zeta_1)^j in n = 1: every multinomial is 1, so the scan's weights are 1
        # and nothing the size of (n - 1 + K)! is built, per pair or once
        doc = {"n": 1, "terms": [{"mu": [0], "nu": [j], "re": "1/1", "im": "0/1"} for j in nus]}
        path = tmp_path / "conj_sum.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, err = run(capsys, "check", "--input", str(path))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and err == "" and elapsed < seconds
        assert peak < 8_000_000
        assert json.loads(out)["member"] is False

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
