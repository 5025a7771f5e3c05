"""End-to-end command line checks driven through main(argv)."""

import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

from maxcurves import CurveModel, FieldTower, Point, PrecisionError, build_tower, cli

# every command stays in the tables of the tower it builds
pytestmark = pytest.mark.usefixtures("products_stay_in_k")

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert err == ""
    return rc, json.loads(out)


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def test_curve_hermitian(capsys):
    rc, doc = run_json(capsys, "curve", "--p", "3", "--a", "1",
                       "--hermitian-m", "2")
    assert rc == 0
    assert doc["tower"]["modulus"] == [1, 0, 1, 1, 1]
    assert doc["counts"]["rational"] == 16
    assert doc["counts"]["maximal"] is True
    assert doc["counts"]["quartic"] == 64
    assert doc["counts"]["quartic_matches_prediction"] is True
    assert doc["bounds"]["all_ok"] is True
    assert doc["bounds"]["castelnuovo_attained"] is True


def test_curve_additive(capsys):
    rc, doc = run_json(capsys, "curve", "--p", "2", "--a", "2",
                       "--additive", "1,1", "--d", "5")
    assert rc == 0
    assert doc["counts"]["rational"] == 33
    assert doc["counts"]["maximal"] is True


def test_curve_non_maximal_is_reported_not_rejected(capsys):
    rc, doc = run_json(capsys, "curve", "--p", "3", "--a", "1",
                       "--additive", "1,1", "--d", "7")
    assert rc == 0
    assert doc["counts"]["maximal"] is False
    assert "quartic_predicted" not in doc["counts"]
    assert doc["bounds"]["all_ok"] is False


def test_curve_emit_csv(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    rc, _ = run_json(capsys, "curve", "--p", "3", "--a", "1",
                     "--hermitian-m", "2", "--emit", str(path))
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,level"
    assert len(lines) == 17
    assert lines[-1] == "inf,inf,1"


def test_curve_emit_level_4_after_table_free_count(capsys, tmp_path, h23):
    # the count runs first without a fiber table; the listing builds one
    path = tmp_path / "pts4.csv"
    rc, doc = run_json(capsys, "curve", "--p", "3", "--a", "1", "--hermitian-m", "2",
                       "--level", "4", "--emit", str(path))
    assert rc == 0
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows[0] == ["x", "y", "level"]
    assert len(rows) == 1 + doc["counts"]["quartic"] == 1 + 64
    assert rows[-1] == ["inf", "inf", "1"]
    t = h23.tower
    pts = [Point(t.parse_element(x), t.parse_element(y)) for x, y, _ in rows[1:-1]]
    assert len(set(pts)) == len(pts)
    assert all(h23.on_curve(P) for P in pts)
    assert {row[2] for row in rows[1:-1]} == {"1", "2", "4"}


def test_curve_wrong_quartic_count_exits_1(capsys, monkeypatch):
    real = CurveModel.count
    monkeypatch.setattr(CurveModel, "count",
                        lambda self, level: real(self, level) + (level == 4))
    rc, doc = run_json(capsys, "curve", "--p", "3", "--a", "1", "--hermitian-m", "2")
    assert rc == 1
    assert doc["counts"]["quartic"] == 65
    assert doc["counts"]["quartic_matches_prediction"] is False
    # a non-maximal curve has no prediction to miss
    rc, doc = run_json(capsys, "curve", "--p", "3", "--a", "1",
                       "--additive", "1,1", "--d", "7")
    assert rc == 0
    assert "quartic_matches_prediction" not in doc["counts"]


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_full_instance(capsys):
    rc, doc = run_json(capsys, "audit", "--p", "3", "--a", "1",
                       "--hermitian-m", "2")
    assert rc == 0
    assert doc["all_identities"] is True
    assert doc["ramification"]["all_ok"] is True
    assert doc["order_census"]["ok"] is True
    assert doc["embedding"]["ok"] is True
    assert doc["dichotomy"]["branch"] == "nm1-equals-q-plus-1"
    assert doc["dichotomy"]["normalization"]["verified"] is True


def test_audit_is_deterministic(capsys):
    argv = ("audit", "--p", "3", "--a", "1", "--hermitian-m", "2")
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1.encode() == out2.encode()


def test_audit_skips_inapplicable_sections(capsys):
    rc, doc = run_json(capsys, "audit", "--p", "2", "--a", "2",
                       "--additive", "1,1", "--d", "5")
    assert rc == 0
    assert "skipped" in doc["ramification"]
    assert "skipped" in doc["embedding"]
    assert doc["dichotomy"]["branch"] == "nm1-equals-q"
    assert doc["dichotomy"]["conjecture_flag"] is True
    assert doc["dichotomy"]["normalization"] is None
    assert doc["all_identities"] is True


def test_audit_failed_identity_exits_1(capsys, monkeypatch):
    import maxcurves.verdicts as verdicts
    census = verdicts.order_census
    monkeypatch.setattr(verdicts, "order_census",
                        lambda curve, orders: replace(census(curve, orders), ok=False))
    rc, doc = run_json(capsys, "audit", "--p", "3", "--a", "1",
                       "--hermitian-m", "2")
    assert rc == 1
    assert doc["order_census"]["ok"] is False
    assert doc["all_identities"] is False


def test_audit_rejects_non_maximal_model(capsys):
    rc, out, err = run_cli(capsys, "audit", "--p", "3", "--a", "1",
                           "--additive", "1,1", "--d", "7")
    assert rc == 2
    assert out == ""
    assert json.loads(err)["kind"] == "validation"


# ---------------------------------------------------------------------------
# code
# ---------------------------------------------------------------------------

def test_code_with_exact_distance(capsys):
    rc, doc = run_json(capsys, "code", "--p", "2", "--a", "1",
                       "--hermitian-m", "3", "--lambda", "3", "--exact")
    assert rc == 0
    assert doc["code"]["n"] == 8
    assert doc["code"]["k"] == 3
    assert doc["code"]["d_designed"] == 5
    assert doc["distance"]["distance"] == 5
    assert doc["distance"]["attains_designed"] is True


def test_code_emit_json(capsys, tmp_path):
    path = tmp_path / "mat.json"
    rc, _ = run_json(capsys, "code", "--p", "2", "--a", "1",
                     "--hermitian-m", "3", "--lambda", "2",
                     "--emit", str(path), "--format", "json")
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["params"] == {"n": 8, "k": 2, "lambda": 2, "q2": 4}


def test_code_distance_budget_exit(capsys):
    rc, out, err = run_cli(capsys, "code", "--p", "5", "--a", "1",
                           "--hermitian-m", "3", "--lambda", "10", "--exact")
    assert rc == 3
    assert out == ""
    assert json.loads(err)["kind"] == "budget"


# ---------------------------------------------------------------------------
# conjecture
# ---------------------------------------------------------------------------

def test_conjecture_complete_scan(capsys):
    rc, doc = run_json(capsys, "conjecture", "--p", "2", "--a", "1",
                       "--m1", "2")
    assert rc == 0
    scan = doc["scan"]
    assert scan["complete"] is True
    assert scan["tested"] == 3
    assert len(scan["hits"]) == 1
    hit = scan["hits"][0]
    assert hit["f_coeffs"] == [[1, 0, 0, 0], [1, 0, 0, 0]]
    assert hit["count"] == 9
    assert hit["two_g_matches"] is True
    assert hit["n_m1_matches"] is True


def test_conjecture_partial_scan_exits_3_with_report(capsys):
    rc, out, err = run_cli(capsys, "conjecture", "--p", "2", "--a", "2",
                           "--m1", "2", "--scan-budget", "32")
    assert rc == 3
    assert err == ""
    scan = json.loads(out)["scan"]
    assert scan["complete"] is False
    assert scan["tested"] == 2
    assert scan["spent"] == 32


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_identity_model(capsys):
    rc, doc = run_json(capsys, "normalize", "--p", "3", "--a", "1",
                       "--fa", "1", "--fb", "1", "--m", "2")
    assert rc == 0
    norm = doc["normalization"]
    assert norm["verified"] is True
    assert norm["power_index"] == 0


def test_normalize_twisted_model_with_colon_tokens(capsys, t3):
    # a = beta^q / gamma^m, b = beta / gamma^m puts the trace form in disguise
    beta = t3.pow(t3.xi, 2)
    gamma = t3.xi
    a = t3.mul(t3.pow(beta, 3), t3.pow(gamma, -2))
    b = t3.mul(beta, t3.pow(gamma, -2))
    fa = ":".join(str(x) for x in t3.coeffs(a))
    rc, doc = run_json(capsys, "normalize", "--p", "3", "--a", "1",
                       "--fa", fa, "--fb", str(b), "--m", "2")
    assert rc == 0
    assert doc["input"]["a"] == list(t3.coeffs(a))
    assert doc["normalization"]["verified"] is True


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("normalize", "--p", "3", "--a", "1", "--fa", "1", "--fb", "1", "--m", "3"),
    ("curve", "--p", "3", "--a", "1", "--hermitian-m", "2",
     "--additive", "1,1", "--d", "2"),
    ("curve", "--p", "3", "--a", "1", "--additive", "1,1"),
    ("curve", "--p", "4", "--a", "1", "--hermitian-m", "2"),
    ("code", "--p", "2", "--a", "1", "--hermitian-m", "3", "--lambda", "12"),
    ("normalize", "--p", "3", "--a", "1", "--fa", "1:2:3:4:5",
     "--fb", "1", "--m", "2"),
    ("audit", "--p", "3", "--a", "1", "--hermitian-m", "1"),  # genus 0
    ("curve", "--p", "2", "--a", "1", "--hermitian-m", "3",
     "--emit", "/nonexistent/x.csv"),
    ("code", "--p", "2", "--a", "1", "--hermitian-m", "3", "--lambda", "2",
     "--emit", "/nonexistent/x.csv"),
    ("normalize", "--p", "3", "--a", "1", "--fa", "5:0", "--fb", "1", "--m", "2"),
    ("audit", "--p", "2", "--a", "1", "--hermitian-m", "3", "--d", "7"),
])
def test_validation_failures_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["kind"] == "validation"


@pytest.mark.parametrize("argv,code", [
    ("normalize --p 3 --a 1 --fa 3 --fb 1 --m 2", 3),
    ("code --p 2 --a 2 --additive 2,1 --d 5 --lambda 3", 2),
])
def test_non_k_coefficient_exits_2_on_the_k_only_tower(capsys, argv, code):
    rc, out, err = run_cli(capsys, *argv.split())
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": f"coefficient {code} is not in the base field k",
                               "kind": "validation"}


@pytest.mark.parametrize("argv,top", [
    ("curve --p 2 --a 1 --hermitian-m 3", 2),
    ("curve --p 2 --a 1 --hermitian-m 3 --level 4", 2),
    ("curve --p 2 --a 1 --hermitian-m 3 --emit pts.csv", 2),
    ("curve --p 2 --a 1 --hermitian-m 3 --level 4 --emit pts.csv", 4),
    ("audit --p 2 --a 1 --hermitian-m 3", 4),
    ("code --p 2 --a 1 --hermitian-m 3 --lambda 3", 2),
    ("conjecture --p 2 --a 2 --m1 2", 2),
    ("normalize --p 3 --a 1 --fa 2:0:0:0 --fb 1 --m 2", 2),
])
def test_each_subcommand_builds_the_tower_it_needs(capsys, monkeypatch, tmp_path, argv, top):
    # audit and the level-4 point listing reach F_(q^4); code, conjecture,
    # normalize and the rest of curve (its level-4 count too) stay in k
    monkeypatch.chdir(tmp_path)
    built = []

    def spy(*args, **kwargs):
        built.append(build_tower(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_tower", spy)
    rc, _ = run_json(capsys, *argv.split())
    assert rc == 0
    assert len(built) == 1
    assert (built[0].top, built[0].units) == (top, built[0].q ** top - 1)
    assert built[0]._full_tower is None  # no product left the tables


def test_internal_check_failure_exits_1_with_json_error(capsys, monkeypatch):
    # a level-4 count one above the truth breaks the orbit-size check
    real = CurveModel.count
    monkeypatch.setattr(CurveModel, "count",
                        lambda self, level: 427 if level == 4 else real(self, level))
    rc, out, err = run_cli(capsys, "audit", "--p", "5", "--a", "1",
                           "--hermitian-m", "3")
    assert rc == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["kind"] == "identity"
    assert doc["error"].startswith("orbit sizes sum to 426, not the 427 points")


def test_tower_over_budget_exits_3(capsys):
    # 5^8 = 390625 ambient elements: main stops at the tower build
    rc, out, err = run_cli(capsys, "curve", "--p", "5", "--a", "2",
                           "--hermitian-m", "13", "--budget", "1000")
    assert rc == 3
    assert out == ""
    assert json.loads(err)["kind"] == "budget"


def test_tower_beyond_4_byte_tables_exits_3(capsys, monkeypatch):
    # 2^32 ambient elements: refused whatever --budget says, before any table
    def no_search(self):
        raise AssertionError("the modulus search started")
    monkeypatch.setattr(FieldTower, "_find_modulus", no_search)
    rc, out, err = run_cli(capsys, "curve", "--p", "2", "--a", "8",
                           "--hermitian-m", "257", "--budget", "1099511627776")
    assert rc == 3
    assert out == ""
    assert json.loads(err)["kind"] == "budget"


def test_precision_error_exits_2_with_json_error(capsys, monkeypatch):
    import maxcurves.verdicts as verdicts

    def unresolved(curve):
        raise PrecisionError("valuation unresolved at precision cap 1")
    monkeypatch.setattr(verdicts, "order_sequences", unresolved)
    rc, out, err = run_cli(capsys, "audit", "--p", "3", "--a", "1",
                           "--hermitian-m", "2")
    assert rc == 2
    assert out == ""
    assert json.loads(err) == {"error": "valuation unresolved at precision cap 1",
                               "kind": "precision"}


@pytest.mark.parametrize("argv", [
    ("curve", "--p", "2", "--a", "1", "--hermitian-m", "3", "--budget", "-1"),
    ("conjecture", "--p", "2", "--a", "1", "--m1", "2", "--scan-budget", "-5"),
])
def test_negative_budget_exits_2(capsys, argv):
    # argparse rejects it: usage on stderr, no partial report on stdout
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "negative" in err


def test_missing_required_argument_exits_2(capsys):
    rc, _, _ = run_cli(capsys, "code", "--p", "2", "--a", "1",
                       "--hermitian-m", "3")
    assert rc == 2


def test_entry_points():
    # python -m maxcurves, from the source tree as Tier-1 runs it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "maxcurves", "curve", "--p", "2", "--a", "1",
         "--hermitian-m", "3"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["counts"]["rational"] == 9
    # the installed console script points at the same function
    text = (ROOT / "pyproject.toml").read_text()
    if tomllib:
        target = tomllib.loads(text)["project"]["scripts"]["maxcurves"]
    else:
        scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        target = re.search(r'^maxcurves\s*=\s*"([^"]+)"', scripts, re.M).group(1)
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
