"""Acceptance suite: twelve numbered end-to-end criteria.

Each criterion states a numeric contract for the library — closed-form
values, invariance properties, decay bounds, verdict behavior and
byte-level determinism — with an explicit tolerance and, where stated,
a wall-clock budget.  `run_all` prints one PASS/FAIL line per criterion
and returns the structured results; the CLI exposes it as
``liedeg --self-test`` and the test suite runs the same registry.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import degree as DG
from . import dynamics as D
from . import groups as G
from . import koopman as K
from . import reps as R
from .rng import RngHandle
from .scenarios import TIMINGS_FILENAME, default_config, scenario_run

FLOW = D.default_flow(1)
ALPHA = FLOW.alpha[0]
SEED = 20240816


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.cid:02d} {status} "
                f"({self.seconds:6.2f}s): {self.name} -- {self.detail}")


def _manufactured_pair():
    delta = D.su2_diagonal(FLOW, 1)
    zeta = D.su2_twisted_diagonal(FLOW, 1, c0=0.7)
    phi = D.cohomologous_build(delta, zeta, FLOW)
    return delta, zeta, phi


def _seeded_points(n: int, d: int, stream: int) -> D.BasePoint:
    gen = RngHandle(SEED, stream=stream).generator()
    return D.BasePoint(gen.random((n, d)))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _criterion_01():
    """Representation validity on Haar pairs."""
    reps = ([R.su2_rep(l) for l in range(7)]
            + [R.so3_rep(l) for l in range(5)]
            + [R.u2_rep(l, m) for l in range(5) for m in range(-2, 3)])
    worst_hom = worst_unit = 0.0
    for k, rep in enumerate(reps):
        hom, unit = R.haar_deviations(rep, 200, RngHandle(SEED, stream=1000 + k))
        worst_hom = max(worst_hom, hom)
        worst_unit = max(worst_unit, unit)
    passed = worst_hom <= 1e-10 and worst_unit <= 1e-10
    return passed, (f"{len(reps)} reps x 200 Haar pairs: homomorphism dev "
                    f"{worst_hom:.2e}, unitarity dev {worst_unit:.2e} "
                    f"(tol 1e-10)")


def _criterion_02():
    """Orthogonality integrals by exact Euler-angle quadrature."""
    worst = 0.0
    for l in range(5):
        check = R.peter_weyl_check(R.su2_rep(l), 64)
        worst = max(worst, float(check["max_abs_deviation"]))
    passed = worst <= 1e-8
    return passed, (f"su2 l<=4 Gram vs I/d at 64^3 nodes: max dev "
                    f"{worst:.2e} (tol 1e-8)")


def _criterion_03():
    """Closed-form diagonal matrix elements on random diagonal inputs."""
    gen = RngHandle(SEED, stream=3).generator()
    thetas = gen.uniform(0.0, 2.0 * np.pi, size=100)
    worst = 0.0
    z1 = np.exp(1j * thetas)
    payload_su2 = np.stack([z1, np.zeros_like(z1)], axis=-1)
    for l in range(1, 7):
        rep = R.su2_rep(l)
        mats = R.rep_eval_payload(rep, payload_su2) * R.paper_scale(rep)
        jj = np.arange(l + 1)
        weights = np.array([float(math.factorial(j))
                            * float(math.factorial(l - j)) for j in jj])
        expect = weights * z1[:, None] ** (2 * jj - l)
        dev = np.abs(np.einsum("njj->nj", mats) - expect)
        off = np.abs(mats - np.einsum(
            "nj,jk->njk", np.einsum("njj->nj", mats), np.eye(l + 1)))
        worst = max(worst, float(np.max(dev)), float(np.max(off)))
    rots = np.array([G.exp_alg(G.AlgebraElement(G.SO3_GROUP, t * G.J3)).payload
                     for t in thetas])
    for l in range(1, 5):
        rep = R.so3_rep(l)
        mats = R.rep_eval_payload(rep, rots)
        jj = np.arange(-l, l + 1)
        expect = np.exp(1j * jj[None, :] * thetas[:, None])
        dev = np.abs(np.einsum("njj->nj", mats) - expect)
        worst = max(worst, float(np.max(dev)))
    passed = worst <= 1e-11
    return passed, (f"100 random diagonal elements, su2 l<=6 (paper "
                    f"convention) + so3 x3-rotations l<=4: max dev "
                    f"{worst:.2e} (tol 1e-11)")


def _criterion_04():
    """Degree closed forms for torus power cocycles."""
    points = _seeded_points(20, 1, stream=4)
    worst_pt = worst_quad = 0.0
    for k in (1, 2, 3):
        c = D.torus_monomial(FLOW, [[k]])
        target = 2j * np.pi * ALPHA * k
        est = DG.degree_pointwise(c, FLOW, points, 10000)
        dev = G.algebra_norm(G.AlgebraElement(
            c.group, est.value.payload - np.array([target])))
        worst_pt = max(worst_pt, float(np.max(dev)))
        closed = DG.degree_constant_diagonal(c, D.QuadratureSpec(8))
        worst_quad = max(worst_quad, float(
            np.max(np.abs(closed.payload - np.array([target])))))
    passed = worst_pt <= 1e-3 and worst_quad <= 1e-12
    return passed, (f"torus power k in 1..3 at 20 points: pointwise dev "
                    f"{worst_pt:.2e} (tol 1e-3), quadrature closed form "
                    f"dev {worst_quad:.2e} (tol 1e-12)")


def _criterion_05():
    """Eigenvalue patterns and kernel index sets of i dpi(degree)."""
    rho, s = 1.3, 0.9
    worst = 0.0
    Z = G.AlgebraElement(G.SU2_GROUP, rho * G.E3)
    for l in range(7):
        jj = np.arange(l + 1)
        ortho = 1j * R.rep_differential(R.su2_rep(l), Z)
        dev_o = np.abs(ortho - np.diag(rho * (l - 2 * jj)).astype(complex))
        paper = ortho * R.paper_scale(R.su2_rep(l))
        weights = np.array([float(math.factorial(j))
                            * float(math.factorial(l - j)) for j in jj])
        dev_p = np.abs(paper - np.diag(weights * rho * (l - 2 * jj)))
        worst = max(worst, float(np.max(dev_o)), float(np.max(dev_p)))
        expect_kernel = [] if l % 2 else [l // 2]
        if DG.kernel_split(R.multiplication_matrix(R.su2_rep(l), Z))[2] != expect_kernel:
            return False, f"su2 l={l} kernel indices mismatch"
    Zc = G.AlgebraElement(G.U2_GROUP, 1j * s * np.eye(2))
    for l in range(5):
        for m in range(-2, 3):
            rep = R.u2_rep(l, m)
            jj = np.arange(l + 1)
            ortho = 1j * R.rep_differential(rep, Zc)
            scale = -s * (2 * m - l)
            dev_o = np.abs(ortho - scale * np.eye(l + 1))
            paper = ortho * R.paper_scale(rep)
            weights = np.array([float(math.factorial(j))
                                * float(math.factorial(l - j))
                                for j in jj])
            dev_p = np.abs(paper - np.diag(weights * scale))
            worst = max(worst, float(np.max(dev_o)), float(np.max(dev_p)))
            expect_kernel = list(range(l + 1)) if 2 * m == l else []
            if DG.kernel_split(R.multiplication_matrix(rep, Zc))[2] != expect_kernel:
                return False, f"u2 (l,m)=({l},{m}) kernel indices mismatch"
    passed = worst <= 1e-10
    return passed, (f"su2 l<=6 eigs rho(l-2j) / j!(l-j)! rho(l-2j), u2 "
                    f"central -s(2m-l): max dev {worst:.2e} (tol 1e-10); "
                    f"kernel index sets all match")


def _criterion_06():
    """Degree conjugation-invariance across a manufactured cohomology."""
    delta, zeta, phi = _manufactured_pair()
    points = _seeded_points(20, 1, stream=6)
    out = DG.invariance_check_cohomology(phi, delta, zeta, FLOW, 10000,
                                         points)
    conj = out["max_conjugation_deviation"]
    norm = out["max_norm_deviation"]
    passed = conj <= 5e-3 and norm <= 5e-3
    return passed, (f"N=1e4 at 20 points: conjugation dev {conj:.2e}, "
                    f"norm dev {norm:.2e} (tol 5e-3)")


def _criterion_07():
    """Straightening accuracy, improvement with N, and transfer branches."""
    _, _, phi = _manufactured_pair()
    grid = D.BasePoint(D.quadrature_points(D.QuadratureSpec(64), 1))
    out1 = DG.su2_straighten(phi, FLOW, 10000, grid)
    out2 = DG.su2_straighten(phi, FLOW, 40000, grid)
    off1 = out1["max_off_diagonal"]
    off2 = out2["max_off_diagonal"]
    rho = 1.3
    plus = DG.su2_transfer_zeta(
        G.AlgebraElement(G.SU2_GROUP, rho * G.E3), rho)
    dev_plus = float(np.max(np.abs(plus.payload - np.array([1.0 + 0j, 0.0]))))
    minus = DG.su2_transfer_zeta(
        G.AlgebraElement(G.SU2_GROUP, -rho * G.E3), rho)
    dev_minus = float(np.max(np.abs(
        G.su2_matrix(minus.payload)
        - np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex))))
    passed = (off1 <= 1e-2 and off2 < off1
              and dev_plus <= 1e-15 and dev_minus <= 1e-15)
    return passed, (f"off-diagonal {off1:.2e} at N=1e4 (tol 1e-2), "
                    f"{off2:.2e} at N=4e4 (must decrease); transfer "
                    f"branches dev {max(dev_plus, dev_minus):.1e} "
                    f"(tol 1e-15)")


def _criterion_08():
    """Ad-average projection: closed forms against Monte Carlo."""
    m_samples = 10000
    cases = {
        "torus": G.AlgebraElement(G.torus_group(2),
                                  np.array([0.3 + 1.1j, -0.4 + 0.2j])),
        "su2": G.AlgebraElement(G.SU2_GROUP,
                                0.7 * G.E1 - 0.4 * G.E2 + 1.1 * G.E3),
        "so3": G.AlgebraElement(G.SO3_GROUP,
                                0.9 * G.J1 + 0.2 * G.J2 - 0.5 * G.J3),
        "u2": G.AlgebraElement(G.U2_GROUP,
                               0.6j * np.eye(2) + 0.8 * G.E1 - 0.3 * G.E3),
    }
    details = []
    passed = True
    for k, (name, Z) in enumerate(cases.items()):
        closed = G.p_ad(Z)
        mc = G.p_ad_monte_carlo(Z, m_samples, RngHandle(SEED, stream=80 + k))
        dev = float(G.algebra_norm(G.AlgebraElement(
            Z.group, closed.payload - mc.payload)))
        bound = 5.0 * float(G.algebra_norm(Z)) / np.sqrt(m_samples)
        ok = dev <= bound
        if name in ("su2", "so3"):
            ok = ok and float(G.algebra_norm(closed)) == 0.0
        passed = passed and ok
        details.append(f"{name} {dev:.2e}<={bound:.2e}")
    return passed, ("closed vs M=1e4 Monte Carlo: " + ", ".join(details)
                    + "; su2/so3 closed forms identically zero")


def _criterion_09():
    """Mixing and pure-point correlation observables for torus powers."""
    c1 = D.torus_monomial(FLOW, [[1]])
    rep1 = R.torus_rep([1])
    probe1 = K.constant_fiber(rep1, [1.0])
    series1 = K.correlation_series(probe1, probe1, c1, FLOW, 50,
                                   D.QuadratureSpec(8))
    worst = float(np.max(np.abs(series1.values[1:])))
    c0 = D.torus_monomial(FLOW, [[0]])
    probe0 = K.monomial_fiber(rep1, [[1]])
    series0 = K.correlation_series(probe0, probe0, c0, FLOW, 50,
                                   D.QuadratureSpec(8))
    a_n = K.wiener_average(series0)
    a_min = float(np.min(a_n))
    passed = worst <= 1e-10 and a_min >= 0.99
    return passed, (f"winding-1 cocycle max |c_N| {worst:.2e} for N<=50 "
                    f"(tol 1e-10); winding-0 pure-point probe min A_N "
                    f"{a_min:.4f} (need >= 0.99)")


def _criterion_10():
    """Correlations agree across a cohomology through conjugated probes."""
    delta, zeta, phi = _manufactured_pair()
    quad = D.QuadratureSpec(16)
    worst = 0.0
    for l in (1, 2):
        rep = R.su2_rep(l)
        for slot in range(rep.dim):
            vec = np.zeros(rep.dim, dtype=complex)
            vec[slot] = 1.0
            psi = K.constant_fiber(rep, vec)
            psi_conj = K.conjugate_vector(psi, zeta)
            for n in (1, 5, 12, 20):
                c_delta, _ = K.koopman_apply_corr(psi, psi, delta, FLOW, n,
                                                  quad)
                c_phi, _ = K.koopman_apply_corr(psi_conj, psi_conj, phi,
                                                FLOW, n, quad)
                worst = max(worst, abs(c_delta - c_phi))
    passed = worst <= 1e-8
    return passed, (f"su2 l<=2, N<=20: max two-route disagreement "
                    f"{worst:.2e} (tol 1e-8)")


def _criterion_11():
    """Scenario verdicts: AC prediction, non-ergodicity, kernel split."""
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        rr = scenario_run(default_config("anzai-torus",
                                         outdir=f"{tmp}/anzai"))
        for entry in rr.report["spectral"]:
            label = entry["label"]
            is_zero = label == "torus q=[0]"
            want = "NO-CLAIM" if is_zero else "AC-PREDICTED"
            if entry["ac"]["verdict"] != want:
                problems.append(f"anzai {label}: ac {entry['ac']['verdict']}"
                                f" != {want}")
        rr = scenario_run(default_config("su2-straighten",
                                         outdir=f"{tmp}/su2"))
        rho = rr.report["degree"]["diagnostics"]["straighten_rho_estimate"]
        verdict = rr.report["degree"]["verdict"]
        if rho > 1e-3 and verdict != "NOT_UNIQUELY_ERGODIC(b)":
            problems.append(f"su2 rho={rho:.3e} but verdict {verdict}")
        rr = scenario_run(default_config("u2-product", outdir=f"{tmp}/u2"))
        kernels = {e["label"]: e["mixing"]["kernel_indices"]
                   for e in rr.report["spectral"]}
        if kernels.get("u2 (l,m)=(2,1)") != [0, 1, 2]:
            problems.append(f"u2 2m=l kernel {kernels.get('u2 (l,m)=(2,1)')}")
        if kernels.get("u2 (l,m)=(2,2)") != []:
            problems.append(f"u2 2m!=l kernel {kernels.get('u2 (l,m)=(2,2)')}")
    if problems:
        return False, "; ".join(problems)
    return True, ("anzai AC-PREDICTED iff q != 0; su2-straighten "
                  "NOT_UNIQUELY_ERGODIC(b) at rho > 1e-3; u2-product "
                  "kernel split matches 2m = l")


def _criterion_12():
    """Byte-identical reports on repeated scenario runs."""
    names = ("anzai-torus", "torus-general", "su2-straighten",
             "so3-maximal-torus", "u2-product")
    compared = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            dirs = []
            for tag in ("a", "b"):
                cfg = default_config(name, outdir=f"{tmp}/{name}-{tag}")
                dirs.append(scenario_run(cfg).outdir)
            run_a, run_b = dirs
            files_a = sorted(p.name for p in run_a.iterdir()
                             if p.name != TIMINGS_FILENAME)
            files_b = sorted(p.name for p in run_b.iterdir()
                             if p.name != TIMINGS_FILENAME)
            if files_a != files_b:
                return False, f"{name}: file sets differ"
            for fname in files_a:
                if ((run_a / fname).read_bytes()
                        != (run_b / fname).read_bytes()):
                    return False, f"{name}: {fname} differs between runs"
                compared += 1
    return True, (f"all 5 scenarios rerun with fixed seeds: {compared} "
                  f"files byte-identical (timing sidecars excluded)")


CRITERIA = (
    (1, "representation validity", _criterion_01, 10.0),
    (2, "orthogonality integrals", _criterion_02, 60.0),
    (3, "diagonal closed forms", _criterion_03, None),
    (4, "torus degree closed forms", _criterion_04, None),
    (5, "degree eigenvalue patterns", _criterion_05, None),
    (6, "cohomology invariance of degrees", _criterion_06, 120.0),
    (7, "straightening and transfer branches", _criterion_07, None),
    (8, "Ad-average projection closed forms", _criterion_08, None),
    (9, "mixing and pure-point observables", _criterion_09, 60.0),
    (10, "two-route correlation agreement", _criterion_10, None),
    (11, "scenario verdict pipeline", _criterion_11, None),
    (12, "deterministic reports", _criterion_12, None),
)


def run_one(cid: int) -> CriterionResult:
    for num, name, fn, budget in CRITERIA:
        if num == cid:
            t0 = time.perf_counter()
            passed, detail = fn()
            seconds = time.perf_counter() - t0
            if budget is not None and seconds > budget:
                passed = False
                detail += (f"; runtime {seconds:.1f}s exceeds the "
                           f"{budget:.0f}s budget")
            return CriterionResult(cid, name, passed, detail, seconds)
    raise KeyError(f"no criterion {cid}")


def run_all() -> list[CriterionResult]:
    results = []
    for cid, _name, _fn, _budget in CRITERIA:
        res = run_one(cid)
        results.append(res)
        print(res.line(), flush=True)
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed", flush=True)
    return results
