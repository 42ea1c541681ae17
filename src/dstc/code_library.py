"""Construction of linear dispersion space-time codes for relay networks.

Every family is kept in one uniform linear-dispersion form: a codeword in K
complex symbols x_k = x_kI + j*x_kQ is

    S(x) = sum_k  x_kI * weights_i[k]  +  x_kQ * weights_q[k]

with T x N complex weight matrices (T channel uses, N relays/antennas).
Real symbols are indexed interleaved: real index 2k is x_kI, 2k+1 is x_kQ.

Families provided:

* ``alamouti`` / ``square_cod(n)`` -- square complex orthogonal designs for
  n in {2, 4, 8}, built by the standard doubling recursion.
* ``gciod`` -- generalized coordinate interleaved orthogonal designs:
  block diagonal of two orthogonal designs whose symbols swap quadrature
  components across the blocks.
* ``clifford_4x4`` / ``cuw_ssd(n)`` -- Clifford unitary-weight single-symbol
  decodable codes, built from anticommuting Pauli-string generators.
* ``block_diagonal_extend`` -- k independent copies of a base design along
  the diagonal (e.g. the 8-relay extension of the 4x4 Clifford design).
* ``repetition_control`` -- a deliberately rank-deficient code used as a
  diversity-experiment control.

``relay_pairs`` recovers for each column i the matrix pair (A_i, B_i) with
column_i(S(s)) = A_i s + B_i s*, which is how relay i processes its received
vector in the two-phase amplify-and-forward protocol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import ContractError, DimensionError, ParameterError
from .matrix_core import frobenius_norm_sq, is_unitary


@dataclass(frozen=True)
class LinearDispersionCode:
    """A space-time code as lists of in-phase / quadrature weight matrices."""

    weights_i: tuple[np.ndarray, ...]
    weights_q: tuple[np.ndarray, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.weights_i) != len(self.weights_q) or not self.weights_i:
            raise DimensionError("need one in-phase and one quadrature weight per symbol")
        shape = self.weights_i[0].shape
        for w in (*self.weights_i, *self.weights_q):
            if w.shape != shape:
                raise DimensionError("all weight matrices must share one shape")

    @property
    def T(self) -> int:
        return self.weights_i[0].shape[0]

    @property
    def N(self) -> int:
        return self.weights_i[0].shape[1]

    @property
    def K(self) -> int:
        return len(self.weights_i)

    def real_weights(self) -> np.ndarray:
        """All 2K weights stacked as a (2K, T, N) array, interleaved I/Q."""
        return np.stack((self.weights_i, self.weights_q), axis=1, dtype=complex).reshape(2 * self.K, self.T, self.N)

    @cached_property
    def _scaled_relay_pairs(self) -> tuple:
        """What ``scaled_relay_pairs`` returns, kept with the code."""
        out = []
        for i, p in enumerate(relay_pairs(self)):
            power = p.power()
            if power <= 1e-14:
                raise ParameterError(f"relay column {i} is identically zero")
            s = 1.0 / np.sqrt(power)
            a, b = p.a * s, p.b * s
            a.flags.writeable = b.flags.writeable = False
            out.append(RelayMatrixPair(a, b))
        return tuple(out)

    def codeword(self, symbols) -> np.ndarray:
        """Evaluate the design at a vector of K complex symbols."""
        x = np.asarray(symbols, dtype=complex)
        if x.shape != (self.K,):
            raise DimensionError(f"expected {self.K} complex symbols, got shape {x.shape}")
        return self.codeword_real(np.ascontiguousarray(x).view(np.float64))  # Re x_1, Im x_1, Re x_2, ...

    def codeword_real(self, reals) -> np.ndarray:
        """Evaluate the design at a vector of 2K real symbols."""
        r = np.asarray(reals, dtype=float)
        if r.shape != (2 * self.K,):
            raise DimensionError(f"expected {2 * self.K} real symbols, got shape {r.shape}")
        return np.einsum("k,ktn->tn", r, self.real_weights())


@dataclass(frozen=True)
class RelayMatrixPair:
    """The (A, B) pair by which one relay combines its receive vector and its conjugate."""

    a: np.ndarray
    b: np.ndarray

    def power(self) -> float:
        return frobenius_norm_sq(self.a) + frobenius_norm_sq(self.b)


# ---------------------------------------------------------------------------
# orthogonal designs
# ---------------------------------------------------------------------------


def scalar_cod() -> LinearDispersionCode:
    """The trivial 1x1 design [x1], the smallest orthogonal design."""
    return LinearDispersionCode(
        (np.array([[1.0 + 0j]]),),
        (np.array([[1j]]),),
        name="scalar",
    )


def alamouti() -> LinearDispersionCode:
    """Rate-one 2x2 orthogonal design [[x1, x2], [-x2*, x1*]]."""
    w1i = np.eye(2, dtype=complex)
    w1q = np.array([[1j, 0], [0, -1j]])
    w2i = np.array([[0, 1], [-1, 0]], dtype=complex)
    w2q = np.array([[0, 1j], [1j, 0]])
    return LinearDispersionCode((w1i, w2i), (w1q, w2q), name="alamouti")


def _cod_double(code: LinearDispersionCode) -> LinearDispersionCode:
    # X' = [[X, y I], [-y* I, X^H]] keeps the orthogonal-design property and
    # adds one symbol; conjugate transposes of the weights carry the X^H block.
    n = code.T
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    wi, wq = [], []
    for m in range(code.K):
        wi.append(np.block([[code.weights_i[m], zero], [zero, code.weights_i[m].conj().T]]))
        wq.append(np.block([[code.weights_q[m], zero], [zero, code.weights_q[m].conj().T]]))
    wi.append(np.block([[zero, eye], [-eye, zero]]))
    wq.append(np.block([[zero, 1j * eye], [1j * eye, zero]]))
    return LinearDispersionCode(tuple(wi), tuple(wq), name=f"cod{2 * n}")


def square_cod(n: int) -> LinearDispersionCode:
    """Square complex orthogonal design for n in {2, 4, 8}.

    Rates are the maximal square-design rates: 1 (n=2, two symbols),
    3/4 (n=4, three symbols) and 1/2 (n=8, four symbols). The defining
    property X^H X = (sum |x_k|^2) I holds for every symbol vector.
    """
    if n not in (2, 4, 8):
        raise ParameterError(f"square orthogonal designs supported for n in (2, 4, 8), got {n}")
    code = alamouti()
    while code.T < n:
        code = _cod_double(code)
    if n == 2:
        code = LinearDispersionCode(code.weights_i, code.weights_q, name="cod2")
    return code


def is_cod(code: LinearDispersionCode, checks: int = 20) -> bool:
    """True if X(x)^H X(x) = (sum |x_k|^2) I within 1e-8 on random symbol draws."""
    parts = np.random.default_rng(1234).standard_normal((checks, 2, code.K))  # per check: real, then imaginary
    reals = parts.transpose(0, 2, 1).reshape(checks, 2 * code.K)  # interleaved as codeword_real takes them
    s = np.einsum("ck,ktn->ctn", reals, code.real_weights())
    gram = s.conj().swapaxes(1, 2) @ s
    power = np.sum(parts**2, axis=(1, 2))
    return bool(np.max(np.abs(gram - power[:, None, None] * np.eye(code.N))) <= 1e-8)


def gciod(theta1: LinearDispersionCode, theta2: LinearDispersionCode) -> LinearDispersionCode:
    """Generalized coordinate interleaved orthogonal design.

    Block diagonal of two orthogonal designs in K/2 symbols each, where
    symbol m of the combined design contributes its real part where x_m
    appears and its imaginary part where x_{(m + K/2) mod K} appears. When
    theta1 == theta2 the result is a (plain) coordinate interleaved design.
    """
    if theta1.K != theta2.K:
        raise ParameterError("component designs must use the same number of symbols")
    for th in (theta1, theta2):
        if not is_cod(th):
            raise ParameterError("component designs must be complex orthogonal designs")
    khalf = theta1.K
    t1, n1 = theta1.T, theta1.N
    t2, n2 = theta2.T, theta2.N
    T, N = t1 + t2, n1 + n2

    def top(w):
        out = np.zeros((T, N), dtype=complex)
        out[:t1, :n1] = w
        return out

    def bottom(w):
        out = np.zeros((T, N), dtype=complex)
        out[t1:, n1:] = w
        return out

    wi = [None] * (2 * khalf)
    wq = [None] * (2 * khalf)
    for m in range(khalf):
        wi[m] = top(theta1.weights_i[m])
        wq[m] = bottom(theta2.weights_q[m])
        wi[khalf + m] = bottom(theta2.weights_i[m])
        wq[khalf + m] = top(theta1.weights_q[m])
    name = "ciod" if theta1.name == theta2.name else "gciod"
    return LinearDispersionCode(tuple(wi), tuple(wq), name=f"{name}{T}")


# ---------------------------------------------------------------------------
# Clifford unitary-weight single-symbol decodable codes
# ---------------------------------------------------------------------------

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Pauli strings g with: i*g anti-Hermitian unitary, mutually anticommuting,
# and each commuting with Y x I x ... x I. Entries of every product stay in
# {0, +-1, +-j}. The n=4 family is ordered to reproduce clifford_4x4 exactly.
_CUW_GENERATORS = {
    2: ("Y",),
    4: ("IY", "IX", "YZ"),
    8: ("IIY", "IIX", "IYZ", "YZZ", "YXZ"),
}


def _pauli_string(letters: str) -> np.ndarray:
    return reduce(np.kron, (_PAULI[c] for c in letters))


def cuw_ssd(n: int) -> LinearDispersionCode:
    """Clifford unitary-weight single-symbol decodable code of size n x n.

    Built from matrix representations of anticommuting generators on n = 2^a
    dimensions: the first in-phase weight is the identity, the first
    quadrature weight is a Hermitian unitary with zero diagonal, the
    remaining in-phase weights are anticommuting anti-Hermitian unitaries
    commuting with it, and each quadrature weight is the product of the two.
    Symbol counts: K = 2 (n=2), 4 (n=4), 6 (n=8).
    """
    if n not in _CUW_GENERATORS:
        raise ParameterError(f"Clifford unitary-weight codes supported for n in (2, 4, 8), got {n}")
    strings = _CUW_GENERATORS[n]
    gens = [1j * _pauli_string(s) for s in strings]
    c1q = -_pauli_string("Y" + "I" * (len(strings[0]) - 1))
    wi = [np.eye(n, dtype=complex)] + gens
    wq = [c1q] + [c1q @ g for g in gens]
    return LinearDispersionCode(tuple(wi), tuple(wq), name=f"cuw{n}")


def clifford_4x4() -> LinearDispersionCode:
    """The explicit 4x4 single-symbol decodable design for four relays.

    Weight matrices are written out entry by entry; the diagonal carries
    x1I -+ j*x4Q and every entry mixes exactly one in-phase and one
    quadrature real symbol:

        [ x1I - j x4Q    x2I + j x3I    x4I + j x1Q   -x3Q + j x2Q ]
        [-x2I + j x3I    x1I + j x4Q   -x3Q - j x2Q   -x4I + j x1Q ]
        [-x4I - j x1Q    x3Q - j x2Q    x1I - j x4Q    x2I + j x3I ]
        [ x3Q + j x2Q    x4I - j x1Q   -x2I + j x3I    x1I + j x4Q ]
    """
    w1i = np.eye(4, dtype=complex)
    w2i = np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=complex
    )
    w3i = 1j * np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    w4i = np.array(
        [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
    )
    w1q = 1j * np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex
    )
    w2q = 1j * np.array(
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=complex
    )
    w3q = np.array(
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex
    )
    w4q = -1j * np.diag([1, -1, 1, -1]).astype(complex)
    return LinearDispersionCode(
        (w1i, w2i, w3i, w4i), (w1q, w2q, w3q, w4q), name="clifford4"
    )


def normalize_unitary_weights(code: LinearDispersionCode) -> LinearDispersionCode:
    """Left-multiply all weights by the Hermitian transpose of the first in-phase weight.

    Requires every weight to be unitary. The returned code has identity as
    its first in-phase weight and the same codebook up to the fixed unitary
    left factor: S_norm(x) = W1I^H S(x) for every symbol vector x.
    """
    for w in (*code.weights_i, *code.weights_q):
        if not is_unitary(w):
            raise ContractError("normalization requires unitary weight matrices")
    u = code.weights_i[0].conj().T
    wi = tuple(u @ w for w in code.weights_i)
    wq = tuple(u @ w for w in code.weights_q)
    return LinearDispersionCode(wi, wq, name=code.name)


# ---------------------------------------------------------------------------
# composition and controls
# ---------------------------------------------------------------------------


def block_diagonal_extend(base: LinearDispersionCode, k: int) -> LinearDispersionCode:
    """k copies of ``base`` along the diagonal, each in fresh symbols."""
    if k < 1:
        raise ParameterError(f"block count must be at least 1, got {k}")
    if k == 1:
        return base
    T, N, K = base.T, base.N, base.K
    wi, wq = [], []
    for blk in range(k):
        for m in range(K):
            for src, dst in ((base.weights_i[m], wi), (base.weights_q[m], wq)):
                w = np.zeros((k * T, k * N), dtype=complex)
                w[blk * T : (blk + 1) * T, blk * N : (blk + 1) * N] = src
                dst.append(w)
    return LinearDispersionCode(tuple(wi), tuple(wq), name=f"{base.name}x{k}")


def repetition_control() -> LinearDispersionCode:
    """Deliberately rank-deficient control: both of its two relays forward only symbol 1.

    Codewords are [[x1, x1], [0, 0]] over two channel uses, so message pairs
    differing only in symbol 2 have identical relay columns. The relay noise
    stays uncorrelated (the structural conditions hold); only the full-rank
    criterion is violated, which makes this the clean control for
    diversity-order experiments.
    """
    wi1 = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    return LinearDispersionCode((wi1, zero), (1j * wi1, zero), name="control2")


# ---------------------------------------------------------------------------
# relay matrix pairs
# ---------------------------------------------------------------------------


def relay_pairs(code: LinearDispersionCode) -> list[RelayMatrixPair]:
    """Recover (A_i, B_i) per column with column_i(S(s)) = A_i s + B_i s*.

    Coefficients follow from x_mI = (x_m + x_m*)/2 and x_mQ = (x_m - x_m*)/(2j):
    A_i collects (W_I - j W_Q)/2 column-wise and B_i collects (W_I + j W_Q)/2.
    """
    wi, wq = np.stack(code.weights_i, axis=2), np.stack(code.weights_q, axis=2)  # (T, N, K)
    a, b = (wi - 1j * wq) / 2, (wi + 1j * wq) / 2
    return [RelayMatrixPair(np.ascontiguousarray(a[:, i]), np.ascontiguousarray(b[:, i])) for i in range(code.N)]


def scaled_relay_pairs(code: LinearDispersionCode) -> list[RelayMatrixPair]:
    """Relay pairs scaled so each meets the unit power budget with equality.

    They are built on the code's first call and kept with it, their matrices
    read-only, as a code's weights do not change once it is made.
    """
    return list(code._scaled_relay_pairs)


# ---------------------------------------------------------------------------
# JSON code bundles
# ---------------------------------------------------------------------------


def _matrix_to_json(w: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in w]


def _matrix_from_json(rows, shape) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[:2] != shape:
        raise ParameterError(f"weight matrix entries must form a {shape} grid of [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("weight matrices must not contain NaN or Inf")
    return arr[..., 0] + 1j * arr[..., 1]


def to_bundle(code: LinearDispersionCode) -> dict:
    """Serialize a code to the JSON bundle schema."""
    return {
        "T": code.T,
        "N": code.N,
        "K": code.K,
        "name": code.name,
        "weights_I": [_matrix_to_json(w) for w in code.weights_i],
        "weights_Q": [_matrix_to_json(w) for w in code.weights_q],
    }


def from_bundle(bundle: dict) -> LinearDispersionCode:
    """Deserialize and validate a JSON code bundle."""
    try:
        t, n, k = int(bundle["T"]), int(bundle["N"]), int(bundle["K"])
        raw_i, raw_q = bundle["weights_I"], bundle["weights_Q"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed code bundle: {exc}") from exc
    if t < 1 or n < 1 or k < 1:
        raise ParameterError("bundle dimensions must be positive")
    if len(raw_i) != k or len(raw_q) != k:
        raise ParameterError(f"bundle declares K={k} but carries {len(raw_i)}/{len(raw_q)} weights")
    wi = tuple(_matrix_from_json(w, (t, n)) for w in raw_i)
    wq = tuple(_matrix_from_json(w, (t, n)) for w in raw_q)
    return LinearDispersionCode(wi, wq, name=str(bundle.get("name", "bundle")))


def _json_array(items: list, pad: int) -> str:
    """A JSON array of formatted items starting at column ``pad``, laid out as ``json.dumps(indent=2)`` does."""
    if not items:
        return "[]"
    inner = "\n" + " " * (pad + 2)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * pad + "]"


def _json_weights(weights: tuple[np.ndarray, ...]) -> str:
    """``_matrix_to_json`` of each weight as an array at the bundle's second level, numbers by json's C encoder."""
    k, (t, n) = len(weights), weights[0].shape
    w = np.stack(weights)
    nums = json.dumps(np.stack([w.real, w.imag], axis=-1).ravel().tolist())[1:-1].split(", ") if w.size else []
    at10, at8 = "\n" + " " * 10, "\n" + " " * 8
    pairs = [f"[{at10}{re},{at10}{im}{at8}]" for re, im in zip(nums[0::2], nums[1::2])]
    rows = [_json_array(pairs[r * n : (r + 1) * n], 6) for r in range(k * t)]
    return _json_array([_json_array(rows[m * t : (m + 1) * t], 4) for m in range(k)], 2)


def bundle_text(code: LinearDispersionCode) -> str:
    """The text ``save_bundle`` writes: ``json.dumps(to_bundle(code), indent=2, sort_keys=True)`` and a newline.

    It is laid out here, not by json's indenting encoder, which runs in pure
    Python element by element.
    """
    fields = {
        "T": json.dumps(code.T),
        "N": json.dumps(code.N),
        "K": json.dumps(code.K),
        "name": json.dumps(code.name),
        "weights_I": _json_weights(code.weights_i),
        "weights_Q": _json_weights(code.weights_q),
    }
    return "{\n" + ",\n".join(f"  {json.dumps(key)}: {fields[key]}" for key in sorted(fields)) + "\n}\n"


def save_bundle(code: LinearDispersionCode, path) -> str:
    """Write the code's bundle to ``path`` and return the text written."""
    text = bundle_text(code)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def load_bundle(path) -> LinearDispersionCode:
    with open(path) as fh:
        try:
            bundle = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"bundle is not valid JSON: {exc}") from exc
    return from_bundle(bundle)
