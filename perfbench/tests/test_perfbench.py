"""Tests of the benchmark itself: output check, span arithmetic, seeded inputs, pairing.

    python -m pytest perfbench/tests
"""

import json

import pytest

from perfbench import check, run, tracer, workloads


def _write_compare(out_dir, rho_newton, rho_pc):
    lines = ["tau,rho_newton,rho_pc,diff"]
    for j, (rn, rp) in enumerate(zip(rho_newton, rho_pc)):
        lines.append(f"{0.1 * j:.9f},{rn:.9f},{rp:.9f},{rp - rn:.9f}")
    (out_dir / "compare.csv").write_text("\n".join(lines) + "\n")
    (out_dir / "compare.json").write_text(json.dumps({"command": "compare"}))


def test_output_perturbed_by_1e6_is_rejected(tmp_path):
    references = check.load_references()
    rho = references[0]["rho"]
    rho_pc = [value - 0.2 for value in rho]

    _write_compare(tmp_path, rho, rho_pc)
    assert check.check_invocation("compare-default", 0, 0, tmp_path, references) == []

    perturbed = list(rho)
    perturbed[len(rho) // 2] += 1e-6
    _write_compare(tmp_path, perturbed, rho_pc)
    reasons = check.check_invocation("compare-default", 0, 0, tmp_path, references)
    assert len(reasons) == 1 and "differs from reference" in reasons[0]


def test_nested_self_times_sum_to_top_span():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    with tr.span("cli", "main"):
        with tr.span("solver_newton", "march_newton"):
            with tr.span("scheme", "layer_rows"):
                pass
            with pytest.raises(ZeroDivisionError):
                with tr.span("tridiag", "thomas_solve"):
                    with tr.span("kernels", "thomas"):
                        1 / 0
        with tr.span("other", "make_grid"):
            pass

    top = tr.spans[0][3] - tr.spans[0][2]
    assert len(tr.spans) == 6  # the span that raised is recorded too
    assert sum(tr.self_times()) == top
    assert all(t >= 0 for t in tr.self_times())
    assert tr.entries("kernels") == 1 and tr.calls("tridiag", "thomas_solve") == 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_always_gives_identical_cli_arguments(workload):
    for seed in (0, 1, 12345):
        assert (workloads.cli_argv(workload, seed, "out")
                == workloads.cli_argv(workload, seed, "out"))
    params = workloads.cli_argv(workload, 0, "out")
    assert params[params.index("--r"):] == [
        "--r", "0.06", "--q", "0.04", "--sigma", "0.2", "--T", "50.0", "--out-dir", "out"]
    assert workloads.market_params(1) == {"r": 0.052687, "q": 0.042712,
                                          "sigma": 0.210551, "T": 50.0}
    assert workloads.cli_argv(workload, 1, "out") != workloads.cli_argv(workload, 2, "out")


def test_pairs_alternate_which_side_runs_first():
    order = []
    pairs = [run.time_pair(i, lambda: order.append("own") or 2.0,
                           lambda: order.append("pinned") or 4.0) for i in range(3)]
    assert order == ["own", "pinned", "pinned", "own", "own", "pinned"]
    assert pairs == [(2.0, 4.0)] * 3
    assert run.pair_ratios([2.0, 3.0], [4.0, 3.0]) == [0.5, 1.0]
