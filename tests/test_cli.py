"""Tests for the command-line driver: exit codes, schemas, determinism."""

import json

import numpy as np
import pytest

from hopfgal import _arrays as ar
from hopfgal import cli, fdalg, resliealg, speclab
from hopfgal.exactfield import Field
from hopfgal.fdalg import SCAlgebra, simples
from hopfgal.galois import Cocycle, group_quotient_coaction
from hopfgal.hopf import cyclic_group_table, group_algebra


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def sl2_file(tmp_path):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(speclab.sl2_algebra(3).to_json()))
    return str(path)


@pytest.fixture()
def borel_file(tmp_path):
    path = tmp_path / "borel.json"
    path.write_text(json.dumps(speclab.borel_algebra(3).to_json()))
    return str(path)


# ---------------------------------------------------------------------------
# builtin / verify
# ---------------------------------------------------------------------------

def test_builtin_sl2_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "builtin", "sl2", "--p", "3")
    assert code == 0
    path = tmp_path / "L.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "verify-lie", str(path))
    assert code == 0 and json.loads(out2)["ok"]


def test_builtin_bad_prime(capsys):
    code, _, err = run(capsys, "builtin", "sl2", "--p", "2")
    assert code == 2 and "sl2" in err and "2" in err


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "verify-lie", str(path))
    assert code == 2 and str(path) in err


def test_verify_hopf_broken_antipode(capsys, tmp_path):
    f = Field(3)
    H = group_algebra(f, cyclic_group_table(3))
    data = H.to_json()
    # break the antipode: send g to g instead of g^2
    data["antipode"][1] = data["antipode"][0][:]
    data["antipode"][1] = [0, 1, 0]
    path = tmp_path / "h.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify-hopf", str(path))
    report = json.loads(out)
    assert code == 1 and not report["ok"] and report["issues"]


def test_verify_hopf_non_integer_prime_exits_2(capsys, tmp_path):
    data = group_algebra(Field(3), cyclic_group_table(2)).to_json()
    data["field"]["p"] = 2.5
    path = tmp_path / "h.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify-hopf", str(path))
    assert code == 2 and out == ""
    assert "p = 2.5 is not an integer" in err


def test_verify_hopf_good(capsys, tmp_path):
    f = Field(3)
    H = group_algebra(f, cyclic_group_table(4))
    path = tmp_path / "h.json"
    path.write_text(json.dumps(H.to_json()))
    code, out, _ = run(capsys, "verify-hopf", str(path))
    assert code == 0 and json.loads(out)["ok"]


# ---------------------------------------------------------------------------
# fiber / scan
# ---------------------------------------------------------------------------

def test_fiber_regular_report(capsys, sl2_file):
    code, out, _ = run(capsys, "fiber", "--lie", sl2_file,
                       "--lambda", "0,0,1")
    report = json.loads(out)
    assert code == 0
    assert report["blocks"] == 3 and report["simple_dims"] == [3, 3, 3]
    assert report["stratum"] == "regular" and report["eq4_pass"]


def test_fiber_chi_parametrization(capsys, sl2_file):
    # chi = (0,0,1) gives lambda = (0,0,1) since 1^p = 1
    code, out, _ = run(capsys, "fiber", "--lie", sl2_file,
                       "--lambda", "0,0,1", "--chi")
    assert code == 0 and json.loads(out)["stratum"] == "regular"


def test_fiber_wrong_arity(capsys, sl2_file):
    code, _, err = run(capsys, "fiber", "--lie", sl2_file, "--lambda", "0,1")
    assert code == 2 and "coordinates" in err


def test_fiber_past_the_cap_over_the_prime_field_exits_2(capsys, sl2_file):
    # dim 27 over F_{3^19} is 513 over F_3, above the cap of 512
    code, out, err = run(capsys, "fiber", "--lie", sl2_file,
                         "--field", "3^19", "--lambda", "0,0,0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_fiber_over_an_extension_past_k_max_exits_2(capsys, sl2_file):
    code, out, err = run(capsys, "fiber", "--lie", sl2_file,
                         "--field", "2^1000", "--lambda", "0,0,0")
    assert code == 2 and out == ""
    assert "K_MAX" in err and "Traceback" not in err


def test_scan_json_and_determinism(capsys, borel_file):
    code, out1, _ = run(capsys, "scan", "--lie", borel_file, "--field", "3")
    code2, out2, _ = run(capsys, "scan", "--lie", borel_file, "--field", "3")
    assert code == 0 and code2 == 0 and out1 == out2
    data = json.loads(out1)
    assert len(data["reports"]) == 9
    assert data["center_dim_constant"] and data["center_dims"] == [1]


def test_scan_csv_output(capsys, borel_file):
    code, out, _ = run(capsys, "--output", "csv", "scan",
                       "--lie", borel_file, "--field", "3")
    lines = out.strip().split("\n")
    assert code == 0 and len(lines) == 10
    assert lines[0].split(",") == list(speclab.REPORT_FIELDS)


def test_scan_points_file(capsys, borel_file, tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[1, 0], [0, 1]]))
    code, out, _ = run(capsys, "scan", "--lie", borel_file, "--field", "3",
                       "--points", str(pts))
    data = json.loads(out)
    assert code == 0 and len(data["reports"]) == 2
    assert data["reports"][0]["point"] == [0, 1]


# ---------------------------------------------------------------------------
# cocycles, twists, splittings
# ---------------------------------------------------------------------------

def _f9_cocycle_files(tmp_path):
    """The Z/2 cocycle over F_3 with sigma(g,g) = 2, whose twist is F_9."""
    f = Field(3)
    Z2 = group_algebra(f, cyclic_group_table(2))
    mul = np.zeros((1, 1, 1, 1), dtype=np.int64)
    mul[0, 0, 0, 0] = 1
    unit = np.zeros((1, 1), dtype=np.int64)
    unit[0, 0] = 1
    R = SCAlgebra(f, mul, unit)
    vals = ar.zeros(f, (2, 2, 1))
    vals[0, 0, 0, 0] = 1
    vals[0, 1, 0, 0] = 1
    vals[1, 0, 0, 0] = 1
    vals[1, 1, 0, 0] = 2
    sig = Cocycle(Z2, R, vals)
    cpath = tmp_path / "cocycle.json"
    cpath.write_text(json.dumps(sig.to_json()))
    hpath = tmp_path / "hopf.json"
    hpath.write_text(json.dumps(Z2.to_json()))
    rpath = tmp_path / "ring.json"
    rpath.write_text(json.dumps(R.to_json()))
    return str(cpath), str(hpath), str(rpath)


def test_cocycle_check_ok(capsys, tmp_path):
    cpath, _, _ = _f9_cocycle_files(tmp_path)
    code, out, _ = run(capsys, "cocycle-check", cpath)
    assert code == 0 and json.loads(out)["ok"]


def test_cocycle_check_invalid(capsys, tmp_path):
    cpath, _, _ = _f9_cocycle_files(tmp_path)
    data = json.loads(open(cpath).read())
    data["values"][0][1] = [0]   # breaks the unit condition
    bad = tmp_path / "bad_cocycle.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "cocycle-check", str(bad))
    assert code == 1 and json.loads(out)["issues"]


def test_twist_rejects_dimension_over_cap(capsys, tmp_path):
    # the declared dim is checked before anything of that size is built
    from hopfgal.galois import splitting_to_cocycle
    from hopfgal.resliealg import Fiber, FiberPoint, pbw_splitting

    F = Fiber(speclab.borel_algebra(3), FiberPoint.make(Field(3), [1, 0]))
    data = splitting_to_cocycle(pbw_splitting(F), "standard").to_json()
    data["hopf"]["dim"] = 600
    path = tmp_path / "big_cocycle.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "twist", "--cocycle", str(path))
    assert code == 2 and "error: bad cocycle description" in err
    data["hopf"]["dim"] = 9
    data["values"] = data["values"][:-1]         # one row short
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "twist", "--cocycle", str(path))
    assert code == 2 and "error: bad cocycle description" in err


def test_twist_builds_f9(capsys, tmp_path):
    cpath, hpath, rpath = _f9_cocycle_files(tmp_path)
    code, out, _ = run(capsys, "twist", "--cocycle", cpath,
                       "--hopf", hpath, "--ring", rpath)
    data = json.loads(out)
    assert code == 0 and data["ok"]
    A = SCAlgebra.from_json(data["algebra"])
    assert A.dim == 2 and A.is_commutative()
    rep = simples(A)
    assert rep.semisimple and rep.splitting_degree == 2


def test_equivariant_check(capsys, tmp_path):
    f = Field(3)
    Z4 = group_algebra(f, cyclic_group_table(4))
    Z2 = group_algebra(f, cyclic_group_table(2))
    CA = group_quotient_coaction(Z4, [0, 1, 0, 1], Z2)
    gamma = ar.zeros(f, (2, 4))
    gamma[0, 0, 0] = 1
    gamma[1, 1, 0] = 1
    path = tmp_path / "splitting.json"
    path.write_text(json.dumps({
        "alg": Z4.alg.to_json(), "hopf": Z2.to_json(),
        "coaction": CA.coaction.dense(4, 2).tolist(),
        "gamma": gamma.tolist()}))
    code, out, _ = run(capsys, "equivariant-check", "--splitting", str(path))
    assert code == 0 and json.loads(out)["equivariant"]


def _splitting_json(sp):
    CA = sp.CA
    return json.dumps({
        "alg": CA.alg.to_json(), "hopf": CA.hopf.to_json(),
        "coaction": CA.coaction.dense(CA.alg.dim, CA.hopf.dim).tolist(),
        "gamma": sp.gamma.matrix.tolist()})


@pytest.mark.parametrize("field", [Field(3), Field(3, 2)])
def test_splitting_file_round_trip(field):
    """A splitting file read back, its coaction held as terms, writes the
    same JSON byte for byte."""
    F = resliealg.Fiber(speclab.borel_algebra(3),
                        resliealg.FiberPoint.make(field, [1, 2]))
    text = _splitting_json(resliealg.pbw_splitting(F))
    assert _splitting_json(cli._parse_splitting(json.loads(text))) == text


# ---------------------------------------------------------------------------
# frobenius / winding
# ---------------------------------------------------------------------------

def test_frobenius_command(capsys, sl2_file):
    code, out, _ = run(capsys, "frobenius", "--lie", sl2_file,
                       "--lambda", "1,0,0")
    data = json.loads(out)
    assert code == 0 and data["rank"] == 27 and data["symmetric"]


def test_winding_found(capsys, borel_file):
    code, out, _ = run(capsys, "winding", "--lie", borel_file,
                       "--field", "3^2", "--lambda", "0:1,0")
    data = json.loads(out)
    assert code == 0 and data["one_dim_rep"]


def test_winding_not_found(capsys, sl2_file):
    code, out, err = run(capsys, "winding", "--lie", sl2_file,
                         "--lambda", "0,0,1")
    data = json.loads(out)
    assert code == 1 and not data["one_dim_rep"]
    assert "winding" in err


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_defaults():
    cfg = cli.Config.load(None)
    assert (cfg.eq3_convention, cfg.dim_cap, cfg.output,
            cfg.splitting_degree_cap) == ("paper", 512, "json", 12)


def test_config_file_values(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"output": "csv", "dim_cap": 100,
                                "splitting-degree-cap": 6}))
    cfg = cli.Config.load(str(path))
    assert (cfg.output, cfg.dim_cap, cfg.splitting_degree_cap) == \
        ("csv", 100, 6)


@pytest.mark.parametrize("settings", [
    {"dim_cap": "big"}, {"dim_cap": 100000}, {"dim_cap": 0},
    {"dim_cap": True}, {"dim_cap": 27.0}, {"splitting_degree_cap": 0},
    {"splitting_degree_cap": "12"}, {"splitting_degree_cap": 65},
    {"seed": 5},
])
def test_config_bad_values_exit_2(capsys, tmp_path, borel_file, settings):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(settings))
    code, out, err = run(capsys, "--config", str(path), "verify-lie",
                         borel_file)
    assert code == 2 and "bad configuration" in err and out == ""
    # a rejected configuration sets no cap
    assert (fdalg.DIM_CAP, fdalg.SPLITTING_DEGREE_CAP) == (512, 12)


@pytest.mark.parametrize("argv, want", [
    (["builtin", "sl2", "--p", "3"], 0),
    (["fiber", "--lie", "SL2", "--lambda", "0,0,1"], 2),
    (["builtin", "sl2", "--p", "2"], 2),
])
def test_config_caps_do_not_outlive_main(capsys, tmp_path, sl2_file, argv,
                                         want):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dim_cap": 8, "splitting_degree_cap": 3}))
    argv = [sl2_file if a == "SL2" else a for a in argv]
    code, _, err = run(capsys, "--config", str(path), *argv)
    assert code == want
    if argv[0] == "fiber":
        # the lowered cap held during the call: dim 27 > 8
        assert "exceeds the cap 8" in err
    assert (fdalg.DIM_CAP, resliealg.DIM_CAP, fdalg.SPLITTING_DEGREE_CAP) \
        == (512, 512, 12)


def test_config_unknown_key(capsys, tmp_path, borel_file):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(capsys, "--config", str(path),
                       "verify-lie", borel_file)
    assert code == 2 and "bogus" in err


def test_convention_flag_applies(capsys, tmp_path):
    cpath, _, _ = _f9_cocycle_files(tmp_path)
    code, out, _ = run(capsys, "--eq3-convention", "standard",
                       "cocycle-check", cpath)
    data = json.loads(out)
    assert code == 0 and data["convention"] == "standard"


# ---------------------------------------------------------------------------
# malformed input files
# ---------------------------------------------------------------------------

def _valid_objects():
    """A valid JSON object of each file format."""
    f = Field(3)
    Z4 = group_algebra(f, cyclic_group_table(4))
    Z2 = group_algebra(f, cyclic_group_table(2))
    CA = group_quotient_coaction(Z4, [0, 1, 0, 1], Z2)
    gamma = ar.zeros(f, (2, 4))
    gamma[0, 0, 0] = gamma[1, 1, 0] = 1
    R = SCAlgebra(f, np.ones((1, 1, 1, 1), dtype=np.int64),
                  np.ones((1, 1), dtype=np.int64))
    vals = ar.zeros(f, (2, 2, 1))
    vals[..., 0] = [[[1], [1]], [[1], [2]]]
    return {
        "lie": speclab.sl2_algebra(3).to_json(),
        "hopf": Z2.to_json(),
        "ring": R.to_json(),
        "cocycle": Cocycle(Z2, R, vals).to_json(),
        "splitting": {"alg": Z4.alg.to_json(), "hopf": Z2.to_json(),
                      "coaction": CA.coaction.dense(4, 2).tolist(),
                      "gamma": gamma.tolist()},
    }


# file-taking argument -> (argv, with "FILE" for the malformed file, the
# file's format, a required key, a key whose list is cut one short)
FILE_ARGS = {
    "verify-hopf": (["verify-hopf", "FILE"], "hopf", "mul", "comul"),
    "verify-lie": (["verify-lie", "FILE"], "lie", "p", "basis"),
    "fiber --lie": (["fiber", "--lie", "FILE", "--lambda", "0,0,1"],
                    "lie", "p", "basis"),
    "frobenius --lie": (["frobenius", "--lie", "FILE", "--lambda", "1,0,0"],
                        "lie", "p", "basis"),
    "winding --lie": (["winding", "--lie", "FILE", "--lambda", "0,0,0"],
                      "lie", "p", "basis"),
    "scan --lie": (["scan", "--lie", "FILE", "--field", "3"],
                   "lie", "p", "basis"),
    "scan --points": (["scan", "--lie", "LIE", "--field", "3",
                       "--points", "FILE"], "points", None, None),
    "twist --cocycle": (["twist", "--cocycle", "FILE"],
                        "cocycle", "values", "values"),
    "twist --hopf": (["twist", "--cocycle", "COCYCLE", "--hopf", "FILE"],
                     "hopf", "mul", "comul"),
    "twist --ring": (["twist", "--cocycle", "COCYCLE", "--ring", "FILE"],
                     "ring", "mul", "mul"),
    "cocycle-check": (["cocycle-check", "FILE"], "cocycle", "hopf", "values"),
    "equivariant-check --splitting": (
        ["equivariant-check", "--splitting", "FILE"],
        "splitting", "gamma", "gamma"),
    "--config": (["--config", "FILE", "verify-lie", "LIE"],
                 "config", None, None),
}

# the four malformed inputs of the formats that are not a JSON object
# with lists: a list of points, and a configuration (which has no
# required key and no lists, so an unknown key and a list value stand in)
SPECIAL = {
    "points": {"wrong-type": {"p": [0, 0, 1]}, "missing-key": [0, 0, 1],
               "wrong-lengths": [[0, 0]], "non-numeric": [["a", 0, 1]]},
    "config": {"wrong-type": [1, 2], "missing-key": {"bogus": 1},
               "wrong-lengths": {"dim_cap": [512]}},
}


def _malformed(fmt, kind, key, short):
    if kind == "not-json":
        return "{broken"
    if fmt in SPECIAL:
        return json.dumps(SPECIAL[fmt][kind])
    if kind == "wrong-type":
        return json.dumps([1, 2, 3])
    obj = _valid_objects()[fmt]
    if kind == "missing-key":
        del obj[key]
    else:
        obj[short] = obj[short][:-1]
    return json.dumps(obj)


@pytest.mark.parametrize("arg, kind", [
    (arg, kind) for arg, (_, fmt, _, _) in FILE_ARGS.items()
    for kind in ["not-json", "wrong-type", "missing-key", "wrong-lengths"]
    + (["non-numeric"] if fmt == "points" else [])])
def test_malformed_file_exits_2(capsys, tmp_path, arg, kind):
    argv, fmt, key, short = FILE_ARGS[arg]
    bad = tmp_path / "bad.json"
    bad.write_text(_malformed(fmt, kind, key, short))
    valid = _valid_objects()
    files = {"FILE": str(bad)}
    for name, fmt_ in (("LIE", "lie"), ("COCYCLE", "cocycle")):
        path = tmp_path / f"{fmt_}.json"
        path.write_text(json.dumps(valid[fmt_]))
        files[name] = str(path)
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
