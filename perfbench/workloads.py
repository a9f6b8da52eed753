"""The benchmark's workloads: seeded inputs, job lists and output checks.

Each workload turns a seed into plain input data (`make_inputs`), writes the
files its command-line jobs read, and holds a fixed list of jobs
(`Workload.jobs`) that the run repeats in passes.  A job returns the list of
its mismatches against values known from theory, and the number of fibers it
reported on.  hopfgal is always reached through module attributes looked up
at call time (`hg.cli.main`, ...), so the tracer's wrappers see every call.

Every job is a few seconds at most, so that a run repeats each one several
times and can report its best time.  The seed changes the inputs but not
the work: sl2 points are drawn as images of fixed representative points
under a seeded automorphism Ad(g), g in SL2 (`move_point`).  Such an image
gives an isomorphic fiber, so the same blocks, simples and splitting
degree, and the same amount of work.

Why these two workloads, after the strata of the source paper and its
twisted-product formula (Prop. 30):

- fiber-p5: fiber structure.  Large fibers (sl2, p=5, dim 125): the dual
  integral of u(sl2) (a 15625 x 125 nullspace), the radical of a regular
  fiber, and the p=7 fiber build (dim 343, a 323 MB structure tensor); and
  one `hopfgal scan` over F_9 of small fibers (sl2, p=3, dim 27), one of each
  kind: regular with splitting degree 1, 2 and 3, cone, zero.  The field
  kernels, the structure layer, the Hopf layer and the PBW engine do the
  work, with polynomial factoring, splitting extensions and call overhead on
  small k=2 arrays in the scan.
- twist-p3: the cleaving-map chain pbw_splitting -> splitting_to_cocycle ->
  twisted product (`hopfgal twist`) -> galois_check on the Borel algebra, the
  sl2 cocycle checked against the Prop. 30 sigma table, and the Prop. 30
  evaluator.  The Galois layer's Python loops do the work.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

import numpy as np

import hopfgal as hg
import hopfgal.cli  # noqa: F401  (hg.cli is looked up at call time)

# sl2 points as coefficient lists (lambda_e, lambda_f, lambda_h); over F_9 a
# coefficient list [c0, c1] is c0 + c1 t.  Each is one fiber type.
SCAN_REPS = [
    ("regular", [[0, 0], [0, 0], [0, 1]]),   # splitting degree 1
    ("regular", [[1, 2], [0, 2], [0, 0]]),   # splitting degree 2
    ("regular", [[0, 0], [0, 0], [1, 0]]),   # splitting degree 3
    ("cone", [[1, 0], [0, 0], [0, 0]]),
    ("zero", [[0, 0], [0, 0], [0, 0]]),
]
REGULAR_REP = [0, 0, 1]   # prime-field representatives
CONE_REP = [1, 0, 0]
BUILD7_TRIPLES = 50
PROP30_P5_POINT = [1, 2, 3]
PROP30_P5_PAIRS = 2
# p=5 Prop. 30 labels are the coordinate permutations of one exponent
# vector: the seed then changes which pairs run but not their number of
# coproduct terms, so not how much work they are
PROP30_P5_SHAPE = (3, 2, 0)


# ---------------------------------------------------------------------------
# expectations, from theory
# ---------------------------------------------------------------------------

def expected_fiber(p: int, stratum: str) -> dict:
    """Report fields of an sl2 fiber U_lambda (dim p^3) fixed by theory:
    regular points give p simples of dim p and a semisimple algebra, cone
    points (p+1)/2 simples of dim p and a center of dim p, the zero point
    simples of dims 1..p; the Frobenius form is nondegenerate and the
    degree-p relation holds everywhere."""
    exp = {"stratum": stratum, "dim": p ** 3, "frobenius_rank": p ** 3,
           "eq4_pass": True}
    if stratum == "regular":
        exp.update(semisimple=True, radical_dim=0, simple_dims=[p] * p)
    elif stratum == "cone":
        exp.update(simple_dims=[p] * ((p + 1) // 2), center_dim=p)
    else:
        exp.update(simple_dims=list(range(1, p + 1)))
    return exp


def check_report(rep: dict, p: int, stratum: str) -> list[str]:
    out = []
    for key, want in expected_fiber(p, stratum).items():
        got = rep.get(key)
        if key == "simple_dims" and isinstance(got, list):
            got = sorted(got)
        if got != want:
            out.append(f"{stratum} fiber {rep.get('point')}: {key} is "
                       f"{got!r}, expected {want!r}")
    return out


def _same(got: np.ndarray, want: np.ndarray, what: str) -> list[str]:
    if got.shape == want.shape and np.array_equal(got, want):
        return []
    return [f"{what} differs from the fiber's structure constants"]


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _sl2_group_element(rng: random.Random, field) -> list:
    """A seeded element of SL2(field): upper unipotent * lower unipotent *
    diagonal, as a 2x2 list of Scalars."""
    elems = list(field.elements())
    s, t = rng.choice(elems), rng.choice(elems)
    u = rng.choice([x for x in elems if not x.is_zero()])
    o, z = field.one, field.zero
    return _mat2(_mat2([[o, s], [z, o]], [[o, z], [t, o]]),
                 [[u, z], [z, u.inverse()]])


def _mat2(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
            for i in range(2)]


def move_point(rng: random.Random, field, point) -> list:
    """The image of an sl2 point under Ad(g) for a seeded g in SL2(field).

    With e = E21, f = -E12, h = diag(1,-1) (the brackets of
    hopfgal.sl2_algebra), Ad(g) is an automorphism of the restricted Lie
    algebra, so U_lambda and U_lambda' are isomorphic, where lambda'(x) is
    lambda applied to the coordinates of g x g^-1.  Returns coefficient
    lists."""
    g = _sl2_group_element(rng, field)
    (a, b), (c, d) = g
    g_inv = [[d, -b], [-c, a]]
    o, z = field.one, field.zero
    basis = ([[z, z], [o, z]], [[z, -o], [z, z]], [[o, z], [z, -o]])
    lam = [field.scalar(v) for v in point]
    out = []
    for x in basis:
        y = _mat2(_mat2(g, x), g_inv)
        coords = (y[1][0], -y[0][1], y[0][0])     # in the basis e, f, h
        val = z
        for cf, lv in zip(coords, lam):
            val = val + cf * lv
        out.append(list(val.coeffs))
    return out


def _prime_point(rng: random.Random, field, point) -> list[int]:
    return [c[0] for c in move_point(rng, field, point)]


def scan_batch(rng: random.Random, field) -> list:
    """One scan job's points: every SCAN_REPS point moved by its own
    seeded automorphism."""
    return [{"stratum": s, "point": move_point(rng, field, pt)}
            for s, pt in SCAN_REPS]


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def _cli(argv) -> tuple[int, dict | None]:
    """Run the hopfgal command line in-process; returns its exit code and
    its parsed JSON output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hg.cli.main(argv)
    text = buf.getvalue()
    return code, (json.loads(text) if code == 0 and text.strip() else None)


def _write_json(path: str, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _fiber(L, field, values):
    return hg.resliealg.Fiber(L, hg.resliealg.FiberPoint.make(field, values))


class Workload:
    """A workload's inputs, the files its jobs read, and its job list:
    `jobs` is a list of (kind, job) pairs, the same on every pass; a job
    returns (mismatches, fibers reported on)."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        self.inputs = make_inputs(self.name, seed)
        os.makedirs(workdir, exist_ok=True)
        self.jobs = self.setup()

    @staticmethod
    def make_inputs(rng: random.Random) -> dict:
        raise NotImplementedError

    def setup(self) -> list:
        raise NotImplementedError


class FiberP5(Workload):
    name = "fiber-p5"

    @staticmethod
    def make_inputs(rng):
        return {
            "regular5": _prime_point(rng, hg.Field(5), REGULAR_REP),
            "scan": scan_batch(rng, hg.Field(3, 2)),
            "build7_point": [rng.randrange(7) for _ in range(3)],
            "triples": [[rng.randrange(7 ** 3) for _ in range(3)]
                        for _ in range(BUILD7_TRIPLES)],
        }

    def setup(self):
        self.f5 = hg.Field(5)
        self.sl2_5, self.sl2_7 = hg.sl2_algebra(5), hg.sl2_algebra(7)
        self.lie3 = os.path.join(self.workdir, "sl2-p3.json")
        _write_json(self.lie3, hg.sl2_algebra(3).to_json())
        self.points = os.path.join(self.workdir, "points.json")
        _write_json(self.points, [b["point"] for b in self.inputs["scan"]])
        return [("fiber.integral", self._integral_job),
                ("fiber.radical", self._radical_job),
                ("fiber.build7", self._build7_job),
                ("fiber.scan", self._scan_job)]

    def _integral_job(self):
        """u(sl2) at p=5 and its dual integral; the Frobenius form it gives
        on the regular fiber is nondegenerate."""
        H, _ = hg.resliealg.u_restricted(self.sl2_5, self.f5)
        lam = hg.hopf.left_integral_dual(H)
        F = _fiber(self.sl2_5, self.f5, self.inputs["regular5"])
        CA = hg.galois.ComoduleAlgebra(F.alg, H, F.binomial_tensor(),
                                       check=False)
        rank, _ = hg.fdalg.form_rank(hg.galois.frobenius_form(CA, lam))
        if rank != F.dim:
            return [f"Frobenius form of the p=5 fiber has rank {rank}, "
                    f"expected {F.dim}"], 1
        return [], 1

    def _radical_job(self):
        """The p=5 regular fiber is semisimple with a center of dim p."""
        F = _fiber(self.sl2_5, self.f5, self.inputs["regular5"])
        bad = []
        rad = hg.fdalg.radical(F.alg)
        if rad.dim != 0:
            bad.append(f"p=5 regular fiber has radical dim {rad.dim}")
        cen = hg.fdalg.center(F.alg)
        if cen.dim != 5:
            bad.append(f"p=5 regular fiber has center dim {cen.dim}")
        return bad, 1

    def _build7_job(self):
        """Build the p=7 fiber (dim 343) and check seeded associativity
        triples of its structure constants."""
        F = _fiber(self.sl2_7, hg.Field(7), self.inputs["build7_point"])
        mul = F.alg.mul[..., 0]
        bad = []
        for x, y, z in self.inputs["triples"]:
            left = mul[x, y] @ mul[:, z] % 7           # (e_x e_y) e_z
            right = mul[y, z] @ mul[x] % 7             # e_x (e_y e_z)
            if not np.array_equal(left, right):
                bad.append(f"p=7 fiber is not associative at {(x, y, z)}")
        return bad, 1

    def _scan_job(self):
        """`hopfgal scan` over F_9 of one fiber of each kind, each report
        checked against its stratum."""
        batch = self.inputs["scan"]
        code, res = _cli(["scan", "--lie", self.lie3, "--field", "3^2",
                          "--points", self.points])
        if res is None:
            return [f"hopfgal scan exited with {code}"], 0
        want = {json.dumps(b["point"]): b["stratum"] for b in batch}
        bad = []
        if len(res["reports"]) != len(batch):
            bad.append(f"scan returned {len(res['reports'])} reports for "
                       f"{len(batch)} points")
        for rep in res["reports"]:
            stratum = want.get(json.dumps(rep["point"]))
            if stratum is None:
                bad.append(f"scan reported unknown point {rep['point']}")
                continue
            bad += check_report(rep, 3, stratum)
        return bad, len(res["reports"])


class TwistP3(Workload):
    name = "twist-p3"

    @staticmethod
    def make_inputs(rng):
        f3 = hg.Field(3)
        labels5 = sorted(set(itertools.permutations(PROP30_P5_SHAPE)))
        return {
            "cone3": _prime_point(rng, f3, CONE_REP),
            "borel_point": [rng.randrange(3) for _ in range(2)],
            "prop30_point": _prime_point(rng, f3, REGULAR_REP),
            "prop30_p5_pairs": [[list(a), list(b)] for a, b in rng.sample(
                list(itertools.product(labels5, repeat=2)), PROP30_P5_PAIRS)],
        }

    def setup(self):
        self.f3, self.f5 = hg.Field(3), hg.Field(5)
        self.sl2_3, self.sl2_5 = hg.sl2_algebra(3), hg.sl2_algebra(5)
        self.borel3 = hg.borel_algebra(3)
        self.cocycle_path = os.path.join(self.workdir, "borel-cocycle.json")
        return [("twist.borel", self._borel_job),
                ("twist.sl2", self._sl2_job),
                ("twist.prop30", self._prop30_job)]

    def _borel_job(self):
        """The cleaving-map chain on the Borel algebra over F_3, with the
        twisted product built by `hopfgal twist` from the cocycle file: it
        is the fiber again, the extension is Galois and the fiber's
        Frobenius form is nondegenerate."""
        F = _fiber(self.borel3, self.f3, self.inputs["borel_point"])
        sp = hg.resliealg.pbw_splitting(F)
        sig = hg.galois.splitting_to_cocycle(sp, convention="standard")
        _write_json(self.cocycle_path, sig.to_json())
        code, out = _cli(["--eq3-convention", "standard", "twist",
                          "--cocycle", self.cocycle_path])
        if out is None or not out.get("ok"):
            return [f"hopfgal twist exited with {code}"], 1
        A = hg.fdalg.SCAlgebra.from_json(out["algebra"])
        bad = _same(A.mul, F.alg.mul, "Borel twisted product")
        if hg.galois.galois_check(sp.CA) is not True:
            bad.append("Borel fiber is not a Galois extension")
        lam = hg.hopf.left_integral_dual(sp.CA.hopf)
        rank, _ = hg.fdalg.form_rank(hg.galois.frobenius_form(sp.CA, lam))
        if rank != F.dim:
            bad.append(f"Frobenius form of the Borel fiber has rank {rank}, "
                       f"expected {F.dim}")
        return bad, 1

    def _sl2_job(self):
        """The cocycle of the PBW cleaving map on an sl2 cone fiber over
        F_3 takes scalar values, and they are the sigma of Prop. 30; the
        fiber has the cone simples and center and the degree-p relation."""
        F = _fiber(self.sl2_3, self.f3, self.inputs["cone3"])
        sp = hg.resliealg.pbw_splitting(F)
        sig = hg.galois.splitting_to_cocycle(sp, convention="standard")
        ctx = hg.resliealg.Prop30Context(F)
        table = np.array([[ctx.sigma_value(i, j) for j in range(F.dim)]
                          for i in range(F.dim)])
        bad = []
        if (sig.values.shape != (F.dim, F.dim, 1, 1)
                or not np.array_equal(sig.values[:, :, 0, 0], table % 3)):
            bad.append("sl2 cleaving-map cocycle differs from the Prop. 30 "
                       "sigma table")
        rep = hg.fdalg.simples(F.alg)
        want = expected_fiber(3, "cone")
        if (sorted(rep.simple_dims) != want["simple_dims"]
                or rep.center_dim != want["center_dim"]):
            bad.append(f"sl2 cone fiber has simples {rep.simple_dims} and "
                       f"center dim {rep.center_dim}, expected "
                       f"{want['simple_dims']} and {want['center_dim']}")
        if not hg.speclab.sl2_eq4_check(F)[0]:
            bad.append("degree-p relation fails on the sl2 cone fiber")
        return bad, 1

    def _prop30_job(self):
        """Prop. 30's formula x o y = sigma(x_1, y_1) x_2 y_2 reproduces
        the fiber's product: all pairs at a p=3 regular point, seeded pairs
        of PROP30_P5_SHAPE labels at p=5."""
        values = self.inputs["prop30_point"]
        F = _fiber(self.sl2_3, self.f3, values)
        ctx = hg.resliealg.Prop30Context(F)
        got = np.stack([ctx.multiply(i, j) for i in range(F.dim)
                        for j in range(F.dim)])
        bad = _same(got.reshape(F.alg.mul.shape), F.alg.mul,
                    f"Prop. 30 product at {values}")
        F = _fiber(self.sl2_5, self.f5, PROP30_P5_POINT)
        ctx = hg.resliealg.Prop30Context(F)
        for a, b in self.inputs["prop30_p5_pairs"]:
            i, j = F.index[tuple(a)], F.index[tuple(b)]
            bad += _same(ctx.multiply(i, j), F.alg.mul[i, j],
                         f"Prop. 30 product of {a} and {b} at p=5")
        return bad, 2


WORKLOADS = {w.name: w for w in (FiberP5, TwistP3)}


def make_inputs(name: str, seed: int) -> dict:
    """Plain (JSON-able) inputs of one run; the same seed gives the same
    inputs."""
    return WORKLOADS[name].make_inputs(random.Random(f"{name}:{seed}"))


def make(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)
