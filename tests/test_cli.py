"""Command-line interface: operators, beta reports, sweeps, decomposition."""

import csv
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import modcov
from modcov import cli, covariants
from modcov.cli import main
from modcov.modules import module_spec
from modcov.parsing import format_polynomial, parse_polynomial
from modcov.poly import Polynomial, apply_sigma, delta, delta_power, norm, transfer


def _parse_back(text, vspec):
    return parse_polynomial(text.strip(), vspec)


def test_act_sigma_delta_weight(capsys):
    v = module_spec(3, [2])
    x1 = parse_polynomial("x[1,1]", v)

    assert main(["act", "--p", "3", "--v", "2", "--op", "sigma", "x[1,1]"]) == 0
    assert _parse_back(capsys.readouterr().out, v) == apply_sigma(x1)

    assert main(["act", "--p", "3", "--v", "2", "--op", "delta", "x[1,1]"]) == 0
    assert _parse_back(capsys.readouterr().out, v) == delta(x1)

    assert main(["act", "--p", "3", "--v", "2", "--op", "weight", "x[1,1]"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_act_delta_power_transfer_norm(capsys):
    v = module_spec(3, [2])
    f = parse_polynomial("x[1,1]^2", v)

    assert main(["act", "--p", "3", "--v", "2", "--op", "delta^2", "x[1,1]^2"]) == 0
    assert _parse_back(capsys.readouterr().out, v) == delta(delta(f))

    assert main(["act", "--p", "3", "--v", "2", "--op", "transfer", "x[1,1]^2"]) == 0
    assert _parse_back(capsys.readouterr().out, v) == transfer(f)

    assert main(["act", "--p", "3", "--v", "2", "--op", "norm 1", ""]) == 0
    assert _parse_back(capsys.readouterr().out, v) == norm(v, 1)


def test_act_usage_errors(capsys):
    assert main(["act", "--p", "3", "--v", "2", "--op", "frobnicate", "x[1,1]"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["act", "--p", "3", "--v", "oops", "--op", "delta", "x[1,1]"]) == 2
    capsys.readouterr()
    assert main(["act", "--p", "3", "--v", "2", "--op", "delta", "x[9,9]"]) == 2
    capsys.readouterr()


def test_beta_both_agrees(capsys):
    assert main(["beta", "--p", "3", "--v", "2", "--w", "2"]) == 0
    entry = json.loads(capsys.readouterr().out)
    assert entry["agree"] is True
    assert entry["beta_formula"] == entry["beta_computed"] == 1
    assert entry["case_label"] == "V2-exception"
    assert entry["generator_degrees"] == [0, 1]
    assert entry["status"] == "ok"


def test_beta_formula_only(capsys):
    assert main(["beta", "--p", "5", "--v", "3,2", "--w", "3", "--mode", "formula"]) == 0
    entry = json.loads(capsys.readouterr().out)
    assert entry["beta_formula"] == 9
    assert entry["beta_computed"] is None
    assert entry["agree"] is None


def test_beta_decomposable_w(capsys):
    # W = V_3 + V_2 + V_1 over V = V_2: max over summands
    assert main(["beta", "--p", "5", "--v", "2", "--w", "3,2,1"]) == 0
    entry = json.loads(capsys.readouterr().out)
    assert entry["beta_formula"] == entry["beta_computed"] == 2
    assert entry["agree"] is True


def test_sweep_writes_reports(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(
        [
            "sweep", "--p", "2,3", "--max-blocks", "2", "--max-block-size", "2",
            "--w", "1,2", "--out", str(out),
        ]
    ) == 0
    summary = capsys.readouterr().out
    assert "disagree" in summary
    report = json.loads(out.read_text())
    cases = report["cases"]
    # p=2: V in {[2],[2,2]}, W in {1,2} -> 4; same for p=3 -> 8 total
    assert len(cases) == 8
    assert all(e["agree"] is True for e in cases)
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert rows[0]["agree"] == "True"


def test_sweep_piece_dim_budget_skips(tmp_path, capsys):
    out = tmp_path / "skipped.json"
    assert main(
        [
            "sweep", "--p", "3", "--max-blocks", "1", "--max-block-size", "3",
            "--w", "2", "--out", str(out), "--max-piece-dim", "1",
        ]
    ) == 0
    capsys.readouterr()
    cases = json.loads(out.read_text())["cases"]
    assert cases and all(e["status"] == "skipped: budget" for e in cases)


def test_sweep_checks_every_prime_before_any_case(tmp_path, capsys, monkeypatch):
    calls = []
    real = cli._case_result

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "_case_result", spy)
    out = tmp_path / "r.json"
    assert main(
        [
            "sweep", "--p", "3,4", "--max-blocks", "1", "--max-block-size", "3",
            "--w", "1,2", "--out", str(out),
        ]
    ) == 2
    assert "not prime" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_decompose_round_trip(tmp_path, capsys):
    # h = (x1*x2, x2^2) in k[V_2, V_2]^G at p = 3, multidegree (2) > p - n = 1
    f = tmp_path / "h.txt"
    f.write_text("x[1,1]*x[2,1]\nx[2,1]^2\n")
    assert main(
        ["decompose", "--p", "3", "--v", "2", "--w", "2", "--j", "1", str(f)]
    ) == 0
    out = capsys.readouterr().out
    assert "reconstruction h = N_j*h1 + h2: ok" in out
    assert "witness u =" in out


def test_decompose_hypothesis_failure(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("x[2,1]\n")
    assert main(
        ["decompose", "--p", "3", "--v", "2", "--w", "2", "--j", "1", str(f)]
    ) == 2
    assert "hypothesis" in capsys.readouterr().err


def test_decompose_rejects_non_covariant(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("x[1,1]\nx[1,1]\n")
    assert main(
        ["decompose", "--p", "3", "--v", "2", "--w", "2", "--j", "1", str(f)]
    ) == 2
    assert "error:" in capsys.readouterr().err


def test_decompose_non_multihomogeneous_exits_2(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text("x[2,1] + 1\n")
    assert main(
        ["decompose", "--p", "3", "--v", "2", "--w", "1", "--j", "1", str(f)]
    ) == 2
    assert "multihomogeneous" in capsys.readouterr().err


def test_decompose_reports_failed_split(tmp_path, capsys, monkeypatch):
    def failing(h, j):
        raise covariants.NormDecompositionError("reconstruction check failed")

    monkeypatch.setattr(covariants, "decompose_by_norm", failing)
    f = tmp_path / "h.txt"
    f.write_text("x[1,1]*x[2,1]\nx[2,1]^2\n")
    assert main(
        ["decompose", "--p", "3", "--v", "2", "--w", "2", "--j", "1", str(f)]
    ) == 1
    assert "reconstruction h = N_j*h1 + h2: FAILED" in capsys.readouterr().out


# no part starts with a digit, so no exponent exceeds 3
_EXPR_PARTS = ["x[1,1]", "x[2,1]", "x[1,2]", "x[3,1]", "x[1,", "*2", "^3", "^",
               "+", "-", "*", "(", ")", "]", ",", " "]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    p=st.sampled_from([2, 3, 5]),
    v=st.sampled_from(["2", "3,2", "1"]),
    op=st.one_of(
        st.sampled_from(["sigma", "delta", "transfer", "weight"]),
        st.integers(0, 6).map(lambda k: f"delta^{k}"),
        st.integers(0, 3).map(lambda j: f"norm {j}"),
    ),
    expr=st.one_of(
        st.just(""),
        st.just("0"),
        st.lists(
            st.tuples(st.sampled_from(["x[1,1]", "x[2,1]", "x[1,2]"]), st.integers(0, 3)),
            max_size=3,
        ).map(lambda ts: " + ".join(f"{x}^{e}" for x, e in ts)),
        st.lists(st.sampled_from(_EXPR_PARTS), max_size=8).map("".join),
    ),
)
def test_act_exit_codes(p, v, op, expr, capsys):
    # valid, empty, zero and malformed input: 0 or 2, never a traceback
    assert main(["act", "--p", str(p), "--v", v, "--op", op, "--", expr]) in (0, 2)
    capsys.readouterr()


@pytest.mark.parametrize("w", ["1", "2,2"])
def test_beta_trivial_v_exits_2(w, capsys):
    # V = V_1: G acts trivially and there is no reduced V to compute over
    assert main(["beta", "--p", "2", "--v", "1", "--w", w]) == 2
    assert "error:" in capsys.readouterr().err


_BLOCKS = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=2).map(
        lambda bs: ",".join(str(b) for b in bs)
    ),
    st.sampled_from(["", ",", "3,", "2,,2", "-1", "a", "2;3"]),
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    p=st.sampled_from(["2", "3", "4", "x"]),
    v=_BLOCKS,
    w=_BLOCKS,
)
def test_beta_exit_codes(p, v, w, capsys):
    # valid and malformed p, V and W: 0 or 2, never a traceback
    try:
        code = main(["beta", "--p", p, "--v", v, "--w", w])
    except SystemExit as exc:  # argparse rejects a non-integer --p
        code = exc.code
    assert code in (0, 2)
    capsys.readouterr()


@st.composite
def _decompose_argv(draw):
    """decompose argv and covariant lines.  Half the draws are well formed:
    the lines are the Delta-chain of one multihomogeneous piece of
    Delta^(p-n) of a drawn polynomial, a real covariant into V_n.  The
    other half draw p, V, W and j from valid and malformed values, with
    malformed lines."""
    if not draw(st.booleans()):
        p, v, w = draw(st.sampled_from(["2", "3", "5", "4", "x"])), draw(_BLOCKS), draw(_BLOCKS)
        j = draw(st.sampled_from(["0", "1", "2", "-1", "x"]))
        lines = draw(st.lists(st.lists(st.sampled_from(_EXPR_PARTS), max_size=6).map("".join),
                              max_size=3))
        return ["decompose", "--p", p, "--v", v, "--w", w, "--j", j], lines
    p = draw(st.sampled_from([2, 3, 5]))
    blocks = draw(st.lists(st.integers(1, min(3, p)), min_size=1, max_size=2))
    n = draw(st.integers(1, p))
    j = draw(st.integers(1, len(blocks)))
    vspec = module_spec(p, blocks)
    terms = {}
    for mon in draw(st.lists(st.lists(st.integers(0, vspec.dim - 1), min_size=2, max_size=6),
                             min_size=1, max_size=3)):
        exps = [0] * vspec.dim
        for i in mon:
            exps[i] += 1
        terms[tuple(exps)] = draw(st.integers(1, p - 1))
    f = delta_power(Polynomial(vspec, terms), p - n)
    pieces = list(f.multihomogeneous_components().values()) or [f]
    f = pieces[draw(st.integers(0, len(pieces) - 1))]
    h = covariants.from_weight_poly(f, module_spec(p, [n]))
    argv = ["decompose", "--p", str(p), "--v", ",".join(map(str, blocks)), "--w", str(n),
            "--j", str(j)]
    return argv, [format_polynomial(c) for c in h.components]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_decompose_argv())
def test_decompose_exit_codes(case, tmp_path, capsys):
    # valid and malformed p, V, W, j and covariant files: 0 or 2, never 1
    # (a failed split) and never a traceback
    argv, lines = case
    path = tmp_path / "h.txt"
    path.write_text("".join(line + "\n" for line in lines))
    try:
        code = main(argv + [str(path)])
    except SystemExit as exc:  # argparse rejects a non-integer --p or --j
        code = exc.code
    assert code in (0, 2)
    capsys.readouterr()


@st.composite
def _sweep_argv(draw):
    """sweep argv without --out.  Half the draws are well formed (primes 2
    and 3, up to two blocks of size 2, W sizes 1..3, a budget of none, 1 or
    10), so cases run; the other half draw p from {2, 3, 4, x}, the block
    limits from -1..2, W lists from valid and malformed values and any
    budget in {none, -1, 0, 1, 10}."""
    ok = draw(st.booleans())
    primes = ["2", "3"] if ok else ["2", "3", "4", "x"]
    p = ",".join(draw(st.lists(st.sampled_from(primes), min_size=1, max_size=3)))
    blocks = draw(st.integers(1, 2) if ok else st.integers(-1, 2))
    size = draw(st.just(2) if ok else st.integers(-1, 2))
    sizes = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
        lambda ns: ",".join(map(str, ns))
    )
    w = draw(sizes if ok else _BLOCKS)
    budget = draw(st.sampled_from([None, 1, 10] if ok else [None, -1, 0, 1, 10]))
    argv = ["sweep", "--p", p, "--max-blocks", str(blocks), "--max-block-size", str(size),
            "--w", w]
    return argv + ([] if budget is None else ["--max-piece-dim", str(budget)])


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_sweep_argv())
def test_sweep_exit_codes(argv, tmp_path, capsys):
    # valid and malformed primes, block limits, W lists and piece budgets:
    # 0 or 2, never 1 (a formula/computation mismatch) and never a traceback
    assert main(argv + ["--out", str(tmp_path / "r.json")]) in (0, 2)
    capsys.readouterr()


_SWEEP = ["sweep", "--max-blocks", "1", "--max-block-size", "2"]
_DECOMPOSE = ["decompose", "--p", "5", "--v", "2", "--w", "2", "--j", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        _SWEEP + ["--p", "4", "--w", "1", "--max-piece-dim", "10"],
        _SWEEP + ["--p", "2,x", "--w", "1"],
        _SWEEP + ["--p", "2", "--w", "x"],
        _SWEEP + ["--p", "2", "--w", "1", "--cap", "-1"],
        ["beta", "--p", "3", "--v", "2", "--w", "2", "--cap", "-1"],
        ["act", "--p", "3", "--v", "2", "--op", "weight", ""],
        # every beta runs through its certified cap: no cap or time knobs
        ["beta", "--p", "3", "--v", "3", "--w", "2", "--cap", "1"],
        _SWEEP + ["--p", "3", "--w", "2", "--cap", "1"],
        _SWEEP + ["--p", "3", "--w", "2", "--max-case-seconds", "5"],
        # a piece-dimension budget below 1 would skip every case or none
        _SWEEP + ["--p", "3", "--w", "2", "--max-piece-dim", "0"],
        _SWEEP + ["--p", "3", "--w", "2", "--max-piece-dim", "-3"],
        # block ranges with no case in them
        ["sweep", "--max-blocks", "-1", "--max-block-size", "3", "--p", "5", "--w", "2"],
        ["sweep", "--max-blocks", "0", "--max-block-size", "3", "--p", "5", "--w", "2"],
        ["sweep", "--max-blocks", "1", "--max-block-size", "1", "--p", "5", "--w", "2"],
        # a block degree from 2^63 on would wrap in int64 under sigma
        ["act", "--p", "5", "--v", "2", "--op", "sigma", "x[1,1]*x[2,1]^9223372036854775807"],
        ["act", "--p", "5", "--v", "2", "--op", "sigma", "x[1,1]*x[2,1]^99999999999999999999"],
        _DECOMPOSE + ["x[1,1]*x[2,1]^9223372036854775807"],
        _DECOMPOSE + ["x[1,1]*x[2,1]^99999999999999999999"],
    ],
)
def test_bad_input_exits_2_without_traceback(argv, tmp_path):
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path / "r.json")]
    if argv[0] == "decompose":  # the last argument is the covariant file's line
        (tmp_path / "h.txt").write_text(argv[-1] + "\n")
        argv = argv[:-1] + [str(tmp_path / "h.txt")]
    src = os.path.dirname(os.path.dirname(modcov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "modcov.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
