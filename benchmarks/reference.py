"""Independent recomputation of the scored metrics, for the correctness gate.

Shares no code with the library's metric path: measurement statistics come
from one ``einsum`` contraction of the 3-qubit density matrix (A, B, E)
with the measurement kets, instead of per-outcome Kronecker projectors.
Conventions match the library: setting ``theta`` has "+" ket
``cos(theta/2)|0> + sin(theta/2)|1>`` and "-" ket
``sin(theta/2)|0> - cos(theta/2)|1>``; MI averages the Z and X settings,
gain compares Eve's Z and X marginals, QBER is the Z-basis disagreement.
"""

from __future__ import annotations

import math

import numpy as np

SETTINGS = (0.0, math.pi / 2)

# Partial traces of the (2,2,2,2,2,2) tensor: row axes A B E, column axes A B E.
_REDUCE = {"AB": "abeABe->abAB", "AE": "abeAbE->aeAE", "BE": "abeaBE->beBE"}


def _kets(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, s], [s, -c]])


def _entropy(ps: np.ndarray) -> float:
    ps = ps[ps > 0.0]
    return float(-np.sum(ps * np.log2(ps)))


def pair_probs(rho8: np.ndarray, pair: str, theta: float) -> np.ndarray:
    """Joint outcome distribution P[x, y] when both qubits of ``pair`` measure ``theta``."""
    red = np.einsum(_REDUCE[pair], np.asarray(rho8).reshape([2] * 6))
    k = _kets(theta)
    return np.einsum("xi,yj,ijIJ,xI,yJ->xy", k, k, red, k, k).real


def eve_probs(rho8: np.ndarray, theta: float) -> np.ndarray:
    red = np.einsum("abeabE->eE", np.asarray(rho8).reshape([2] * 6))
    k = _kets(theta)
    return np.einsum("xi,iI,xI->x", k, red, k).real


def scores(rho8: np.ndarray) -> dict[str, float]:
    """MI of each pair, Eve's information gain and the QBER of a 3-qubit state."""
    out = {}
    for pair in ("AB", "AE", "BE"):
        mis = []
        for theta in SETTINGS:
            p = pair_probs(rho8, pair, theta)
            mis.append(max(_entropy(p.sum(1)) + _entropy(p.sum(0)) - _entropy(p.ravel()), 0.0))
        out["i_" + pair.lower()] = sum(mis) / len(mis)
    out["gain"] = 0.25 * float(np.sum(np.abs(eve_probs(rho8, 0.0) - eve_probs(rho8, math.pi / 2))))
    p = pair_probs(rho8, "AB", 0.0)
    out["qber"] = float(p[0, 1] + p[1, 0])
    return out


def pure_scores(amplitudes: np.ndarray) -> dict[str, float]:
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    return scores(np.outer(psi, psi.conj()))


def printed_tolerance(printed: str) -> float:
    """Half a unit in the ninth significant digit of a ``%.9g`` value, plus an absolute floor."""
    v = abs(float(printed))
    if v == 0.0:
        return 1e-12
    return 0.5 * 10.0 ** (math.floor(math.log10(v)) - 8) + 1e-12
