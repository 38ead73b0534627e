import contextlib
import hashlib
import io
import re
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from supersympoly import cli, generated_dimension
from supersympoly.cli import main
from supersympoly.selfcheck import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_member(self, capsys):
        code, out, _ = run(
            capsys, "check", "--m", "1", "--n", "1", "--p", "3", "--poly", "x1 - y1"
        )
        assert code == 0
        assert "overall: true" in out
        assert "strict: true" in out

    def test_non_member(self, capsys):
        code, out, _ = run(
            capsys, "check", "--m", "1", "--n", "1", "--p", "3", "--poly", "x1"
        )
        assert code == 1
        assert "overall: false" in out

    def test_parse_error(self, capsys):
        code, _, err = run(
            capsys, "check", "--m", "1", "--n", "1", "--p", "3", "--poly", "x1 +"
        )
        assert code == 2
        assert "parse error" in err

    def test_non_ascii_digit_is_parse_error(self, capsys):
        for text in ("x1^\u00b2", "x\u0661 - y\u0661"):
            code, _, err = run(
                capsys, "check", "--m", "1", "--n", "1", "--p", "3", "--poly", text
            )
            assert code == 2
            assert "parse error" in err

    def test_out_of_range_variable(self, capsys):
        code, _, _ = run(
            capsys, "check", "--m", "1", "--n", "1", "--p", "3", "--poly", "x2"
        )
        assert code == 2

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("y1^2 - x1*y1\n")
        code, out, _ = run(
            capsys, "check", "--m", "1", "--n", "1", "--p", "3", "--file", str(path)
        )
        assert code == 0
        assert "p_balanced: false" in out

    @pytest.mark.parametrize("m, n, text, member", [
        ("2", "0", "x1 + x2", True), ("2", "0", "x1", False),
        ("0", "2", "y1*y2", True), ("0", "2", "y1^2", False),
    ])
    def test_one_block_strict_is_overall(self, capsys, m, n, text, member):
        code, out, _ = run(capsys, "check", "--m", m, "--n", n, "--p", "3", "--poly", text)
        assert code == (0 if member else 1)
        flag = "true" if member else "false"
        assert f"overall: {flag}\nstrict: {flag}\n" in out


    def test_membership_is_decided_once(self, capsys, monkeypatch):
        """One verdict, from one psi image, gives every membership line."""
        import supersympoly.supersym as supersym

        images = []
        real_psi = supersym.psi
        monkeypatch.setattr(supersym, "psi", lambda f: images.append(f) or real_psi(f))
        code, out, err = run(
            capsys, "check", "--m", "2", "--n", "1", "--p", "3", "--poly", "x1*x2*y1^2 + x1 + x2 - y1"
        )
        assert len(images) == 1
        assert (code, out, err) == (0, (
            "symmetric_x: true\nsymmetric_y: true\nderivative_vanishes: true\n"
            "overall: true\nstrict: false\np_balanced: false\n"), "")


class TestDecompose:
    def test_verified_certificate(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose", "--m", "1", "--n", "1", "--p", "3",
            "--poly", "y1^2 - x1*y1", "--verify",
        )
        assert code == 0
        assert out.strip() == "C[2]"

    def test_constant(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--m", "1", "--n", "1", "--p", "3", "--poly", "2"
        )
        assert code == 0
        assert out.strip() == "2"

    def test_rejection(self, capsys):
        code, _, err = run(
            capsys, "decompose", "--m", "1", "--n", "1", "--p", "3", "--poly", "x1"
        )
        assert code == 1
        assert "rejected" in err

    def test_failed_verification_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr("supersympoly.cli.verify_decomposition", lambda f, e: False)
        code, out, err = run(
            capsys,
            "decompose", "--m", "1", "--n", "1", "--p", "3",
            "--poly", "y1^2 - x1*y1", "--verify",
        )
        assert code == 3
        assert out.strip() == "C[2]"
        assert err == "internal invariant violation: certificate failed to re-expand to the input\n"


class TestVk:
    def test_golden_level_one(self, capsys):
        code, out, _ = run(
            capsys, "vk", "--m", "1", "--n", "1", "--p", "3", "--k", "1"
        )
        assert code == 0
        assert out.strip() == "2*x1*y1 + y1^2"

    def test_show_psi_level_one(self, capsys):
        code, out, _ = run(
            capsys, "vk", "--m", "1", "--n", "1", "--p", "3", "--k", "1", "--show-psi"
        )
        assert code == 0
        assert out.splitlines() == ["2*x1*y1 + y1^2", "0", "0"]

    def test_show_psi_level_two(self, capsys):
        code, out, _ = run(
            capsys, "vk", "--m", "2", "--n", "1", "--p", "3", "--k", "1", "--show-psi"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "T^3"
        assert lines[2] == "0"

    def test_flag_validation(self, capsys):
        code, _, _ = run(capsys, "vk", "--m", "1", "--n", "1", "--p", "3", "--k", "3")
        assert code == 2

    def test_empty_block_is_an_input_error(self, capsys):
        for m, n in (("0", "1"), ("1", "0")):
            code, _, err = run(capsys, "vk", "--m", m, "--n", n, "--p", "3", "--k", "1")
            assert code == 2
            assert err.startswith("input error:")


class TestDims:
    def test_small_grid(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--m", "1", "--n", "1", "--p", "3", "--dmax", "6"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,p,d,dim_As,dim_generated,match"
        assert len(lines) == 9  # header + 7 rows + summary
        assert all(line.endswith("true") for line in lines[1:-1])
        assert lines[-1] == "all 7 degrees match"

    def test_degree_zero_only(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--m", "1", "--n", "1", "--p", "3", "--dmax", "0"
        )
        assert code == 0
        assert "1,1,3,0,1,1,true" in out

    def test_empty_x_block(self, capsys):
        code, out, _ = run(
            capsys, "dims", "--m", "0", "--n", "2", "--p", "3", "--dmax", "4"
        )
        assert code == 0
        # partition counts into at most 2 parts: 1, 1, 2, 2, 3
        rows = [line.split(",") for line in out.strip().splitlines()[1:-1]]
        assert [int(r[4]) for r in rows] == [1, 1, 2, 2, 3]

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "supersympoly.cli.generated_dimension",
            lambda m, n, p, d: generated_dimension(m, n, p, d) + (d == 2),
        )
        code, out, _ = run(
            capsys, "dims", "--m", "1", "--n", "1", "--p", "3", "--dmax", "3"
        )
        assert code == 1
        lines = out.strip().splitlines()
        assert [line.endswith("true") for line in lines[1:-1]] == [True, True, False, True]
        assert lines[3].startswith("1,1,3,2,")
        assert lines[-1] == "MISMATCH in 1 of 4 degrees"

    def test_negative_dmax_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys, "dims", "--m", "1", "--n", "1", "--p", "3", "--dmax", "-1"
        )
        assert code == 2
        assert out == ""
        assert err == "input error: dmax must be nonnegative\n"

    PINS = [
        (3, 3, 3, 9, "18a702caf039df7f3220a85db9c5c941a59b8f77c4b6d0af8945e5e12a1e496c"),
        (2, 2, 3, 13, "7d8d23e8ee28ce97f01dcc094c799c440396e9ff8efb652faae5c333c103ff03"),
        # EX, EY and U at p = 5, and a sparse sweep with many dead draws
        (2, 3, 5, 11, "ec3b1eaea08d2fd0343b85a5fbfa6a1e186e1091595c30579e4a5b35333a5838"),
        (1, 2, 5, 20, "59a13c95fe26ce6a371dd5edb4ab02fdb235e5fce4bc8ef250523aacf6ff123c"),
    ]

    # the ids keep the form they had before p was a column; digests are distinct
    @pytest.mark.parametrize("m, n, p, dmax, digest", PINS, ids=[
        f"{m}-{n}-{dmax}-{digest}" for m, n, _, dmax, digest in PINS])
    def test_output_is_pinned(self, capsys, m, n, p, dmax, digest):
        # the sha256 the CI step checks on the command's standard output
        code, out, _ = run(capsys, "dims", "--m", str(m), "--n", str(n), "--p", str(p), "--dmax", str(dmax))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSelftest:
    def test_expected_failure_keeps_exit_zero(self, capsys, monkeypatch):
        results = [
            CheckResult("good", True, True, "fine", 0.1),
            CheckResult("documented", False, False, "known", 0.1),
        ]
        monkeypatch.setattr("supersympoly.selfcheck.run_all", lambda: results)
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "FAIL (expected" in out

    def test_unexpected_failure_exits_nonzero(self, capsys, monkeypatch):
        results = [CheckResult("broken", False, True, "boom", 0.1)]
        monkeypatch.setattr("supersympoly.selfcheck.run_all", lambda: results)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "1 unexpected failure(s)" in out

    def test_end_to_end(self, capsys, monkeypatch, selftest_results):
        # the suites ran once for the session, before this monkeypatch
        monkeypatch.setattr("supersympoly.selfcheck.run_all", lambda: selftest_results)
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "selftest complete" in out
        assert out.count("PASS") >= 8
        # the details the CI step pins: the output without the " [x.xs]" timings
        details = re.sub(r" \[[0-9]+\.[0-9]+s\]", "", out)
        assert hashlib.sha256(details.encode()).hexdigest() == (
            "a39772c60b161fbba062800fb5344976594e971f717c6f9e4af5cc7acfb68cb3")


def test_main_reuses_one_parser(capsys, monkeypatch):
    """main parses with the parser built at import, and a call argparse
    refuses leaves the same message and exit code as a fresh parser and
    leaves the parser fit for the next call."""
    fresh = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main built a parser"))
    argv = ["check", "--m", "1", "--n", "1", "--p", "3"]  # neither --poly nor --file
    with pytest.raises(SystemExit) as refused:
        main(argv)
    err = capsys.readouterr().err
    with pytest.raises(SystemExit) as fresh_refused:
        fresh.parse_args(argv)
    assert (refused.value.code, err) == (fresh_refused.value.code, capsys.readouterr().err)
    assert refused.value.code == 2 and "--poly" in err
    assert run(capsys, *argv, "--poly", "x1 - y1")[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "supersympoly", "vk", "--m", "1", "--n", "1",
         "--p", "3", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2*x1*y1 + y1^2"


def _ring_argv(m, n, p):
    return ["--m", str(m), "--n", str(n), "--p", str(p)]


# The bounded commands, with arguments that argparse accepts; "--poly="
# keeps text that starts with "-" from reading as an option.
BOUNDED_ARGV = st.one_of(
    st.builds(lambda m, n, p, text: ["check", *_ring_argv(m, n, p), f"--poly={text}"],
              st.integers(-1, 3), st.integers(-1, 3), st.integers(1, 9), st.text(max_size=30)),
    st.builds(lambda m, n, p, k, show: ["vk", *_ring_argv(m, n, p), "--k", str(k)] + show,
              st.integers(-1, 3), st.integers(-1, 3), st.integers(1, 9), st.integers(-1, 9),
              st.sampled_from(([], ["--show-psi"]))),
    st.builds(lambda m, n, p, dmax: ["dims", *_ring_argv(m, n, p), "--dmax", str(dmax)],
              st.integers(-1, 2), st.integers(-1, 2), st.integers(1, 5), st.integers(-1, 4)),
)


@settings(max_examples=100, deadline=None)
@given(BOUNDED_ARGV)
def test_bounded_commands_exit_0_1_or_2(argv):
    """Whatever the input, main returns 0, 1 or 2: no exception escapes
    it, and no input reaches an internal invariant violation."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
