"""Independent output checks, written with numpy and scipy only.

Each check works from the raw generated inputs and shares no code with
bornsolve.  It returns None when the output is right and a one-line
reason when it is not; a reason counts the request as failed.

Tolerances are fixed from the arithmetic, not from observed outputs:
the backward-error style checks allow 1e-10, about 4.5e5 unit roundoffs,
which leaves several orders of magnitude for n * eps accumulation at
these sizes and still rejects a single component off by 1e-6.  Forward
quantities from an LU factorization (det(I - T), which is exactly 1 for
nilpotent T, and the remainder of a contraction with ||T|| = 0.9, whose
I - T has condition number below 19) are allowed 1e-8 relative.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

BACKWARD_TOL = 1e-10
FORWARD_TOL = 1e-8
DARK_THRESHOLD = 1e-12  # the documented regime rule: relative to |p_left| + |p_right|


def csr(c) -> scipy.sparse.csr_array:
    """Matrix of raw couplings, 0-based, built here rather than by bornsolve."""
    return scipy.sparse.csr_array(
        (c.amps.astype(complex), (c.rows - 1, c.cols - 1)), shape=(c.dim, c.dim)
    )


def dense(c) -> np.ndarray:
    out = np.zeros((c.dim, c.dim), dtype=complex)
    out[c.rows - 1, c.cols - 1] = c.amps
    return out


def backward_error(t: scipy.sparse.csr_array, psi: np.ndarray, phi: np.ndarray) -> float:
    """max|psi - T psi - phi| / (max|T| max|psi| + max|phi|)."""
    residual = psi - t @ psi - phi
    scale = np.abs(t.data).max(initial=0.0) * np.abs(psi).max() + np.abs(phi).max()
    return float(np.abs(residual).max() / scale)


def _inf_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=1).max())


# ---------------------------------------------------------------- deep_dag

def check_deep_dag(t: scipy.sparse.csr_array, phi, psi) -> tuple[str | None, float]:
    """Relative backward error of the scattered state; returns (reason, error)."""
    psi = np.asarray(psi)
    if psi.shape != phi.shape or not np.all(np.isfinite(psi)):
        return "psi has the wrong shape or non-finite entries", float("inf")
    err = backward_error(t, psi, phi)
    if not err <= BACKWARD_TOL:
        return f"backward error {err:.3e} > {BACKWARD_TOL:.0e}", err
    return None, err


# ---------------------------------------------------------------- cli_spec

def parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def triangular_solve(inputs, phi: np.ndarray) -> np.ndarray:
    """(I - T)^(-1) phi, with I - T made lower triangular by listing states band by band."""
    perm = inputs.band_order - 1
    t = csr(inputs.couplings)[perm][:, perm]
    a = scipy.sparse.identity(t.shape[0], dtype=complex, format="csr") - t
    x = scipy.sparse.linalg.spsolve_triangular(scipy.sparse.csr_matrix(a), phi[perm], lower=True)
    out = np.empty_like(x)
    out[perm] = x
    return out


def check_cli_analyze(inputs, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"analyze exited with {code}"
    r = parse_report(stdout)
    c = inputs.couplings
    try:
        if r["is_acyclic"] != "true":
            return "analyze: is_acyclic is not true"
        if int(r["depth"]) != inputs.depth:
            return f"analyze: depth {r['depth']} != {inputs.depth}"
        if int(r["dimension"]) != c.dim or int(r["nnz"]) != c.nnz:
            return "analyze: dimension or nnz differs from the spec"
        det = complex(float(r["det.re"]), float(r["det.im"]))
    except (KeyError, ValueError) as exc:
        return f"analyze: malformed report ({exc})"
    if not abs(det - 1.0) <= FORWARD_TOL:
        return f"analyze: |det - 1| = {abs(det - 1.0):.3e} > {FORWARD_TOL:.0e}"
    return None


def check_cli_solve(inputs, expected: np.ndarray, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"solve exited with {code}"
    r = parse_report(stdout)
    n = inputs.couplings.dim
    try:
        psi = np.array([complex(float(r[f"total.{k}.re"]), float(r[f"total.{k}.im"]))
                        for k in range(1, n + 1)])
    except (KeyError, ValueError) as exc:
        return f"solve: malformed report ({exc})"
    err = np.abs(psi - expected).max() / np.abs(expected).max()
    if not err <= BACKWARD_TOL:
        return f"solve: total differs from the triangular solve by {err:.3e} (relative)"
    return None


# ---------------------------------------------------------- diamond_stream

def diamond_expected(h0, potential, energy: complex) -> tuple[complex, str]:
    """Closed-form a4 = T42 T21 + T43 T31, T[j, i] = V[j, i] / (E - H0[j]), and its regime."""
    v = {(int(r), int(c)): complex(a)
         for r, c, a in zip(potential.rows, potential.cols, potential.amps)}

    def t(j, i):
        return v.get((j, i), 0j) / (energy - h0[j - 1])

    p_left, p_right = t(4, 2) * t(2, 1), t(4, 3) * t(3, 1)
    a4 = p_left + p_right
    scale = abs(p_left) + abs(p_right)
    if abs(a4) <= DARK_THRESHOLD * scale:
        regime = "dark_state"
    elif abs(p_left - p_right) <= DARK_THRESHOLD * scale:
        regime = "constructive"
    else:
        regime = "generic"
    return a4, regime


def check_diamond(expected: tuple[complex, str], a4: complex, a4_born1: complex,
                  regime: str) -> str | None:
    want_a4, want_regime = expected
    if regime != want_regime:
        return f"regime {regime!r} != {want_regime!r}"
    if a4_born1 != 0:
        return f"first-order a4 {a4_born1} is not a structural zero"
    if not abs(a4 - want_a4) <= BACKWARD_TOL * max(abs(want_a4), 1e-300):
        return f"a4 {a4} != closed form {want_a4}"
    return None


# ---------------------------------------------------- resolvent_truncation

def check_resolvent(draw, phi, resolvent, tmatrix, det, report) -> tuple[str | None, float]:
    """Residuals of R and TM, det(I - T) = 1, and the order-m remainder against dense LU.

    Returns (reason, worst relative residual).
    """
    n = draw.potential.dim
    v = dense(draw.potential)
    e_minus_h = draw.energy * np.eye(n) - np.diag(draw.h0) - v
    t = v / (draw.energy - draw.h0)[:, np.newaxis]
    i_minus_t = np.eye(n) - t
    r = np.asarray(resolvent)
    tm = np.asarray(tmatrix)
    res_r = np.abs(e_minus_h @ r - np.eye(n)).max() / (_inf_norm(e_minus_h) * _inf_norm(r))
    res_tm = np.abs(tm @ i_minus_t - v).max() / (
        _inf_norm(tm) * _inf_norm(i_minus_t) + np.abs(v).max())
    worst = float(max(res_r, res_tm))
    if not res_r <= BACKWARD_TOL:
        return f"(E - H) R residual {res_r:.3e}", worst
    if not res_tm <= BACKWARD_TOL:
        return f"TM (I - T) - V residual {res_tm:.3e}", worst
    if not abs(complex(det) - 1.0) <= FORWARD_TOL:
        return f"|det - 1| = {abs(complex(det) - 1.0):.3e}", worst

    c = dense(draw.cyclic)
    m = draw.order
    tail = np.linalg.matrix_power(c, m + 1)
    remainder = np.linalg.solve(np.eye(n) - c, tail @ phi)
    want = float(np.abs(remainder).max())
    if report.order != m or report.bound is None:
        return "truncation report has the wrong order or no bound", worst
    if not abs(report.exact_remainder_norm - want) <= FORWARD_TOL * want:
        return (f"remainder norm {report.exact_remainder_norm:.6e} != "
                f"dense {want:.6e}"), worst
    if not abs(report.defect_norm - _inf_norm(tail)) <= FORWARD_TOL * _inf_norm(tail):
        return "defect norm differs from ||T^(m+1)||_inf", worst
    if not report.bound >= want:
        return f"bound {report.bound:.3e} < remainder {want:.3e}", worst
    return None, worst
