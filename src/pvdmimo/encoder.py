"""Deterministic source-to-signal encoders with exact gradient support.

An encoder maps a real source vector d (length n) to a complex signal
matrix X of shape (N_t*K, T). Besides the forward map, each encoder
provides the vector-Jacobian product needed for gradient-based recovery:
for a real-valued loss L with conjugate sensitivity c = dL/dconj(X),

    vjp(d, c) = 2 Re(J^H vec(c)),      J = Jacobian of encode at d,

which is exactly dL/dd under the Wirtinger convention used throughout.

Every encoder is evaluated through one routine, linearize(d) ->
Linearization, which checks d once and does the work that depends on d
alone (tanh' factors; the base linearization, its norm and the radial term
under power normalization). Its value is f(d), jacobian() the dense J,
calling it pulls a cotangent back for one matrix-vector product, however
many are pushed through one point, and frobenius2(H) the Jacobian norms
||J||_F^2 and ||H0 J||_F^2 in closed form. encode, vjp and jacobian are
views of it.

LinearEncoder applies a fixed complex matrix; SaturatingEncoder squashes
real and imaginary parts elementwise through tanh (a smooth, bounded
nonlinearity); PowerNormalizedEncoder rescales any base encoder so the
average per-symbol power is exactly P, with the rescaling differentiated
exactly.
"""

from __future__ import annotations

import numpy as np


class NonFiniteInputError(ValueError):
    """A source vector handed to an encoder has a non-finite entry."""


class Linearization:
    """An encoder at one point d: `value` = encode(d), calling it pulls a
    cotangent back (c -> 2 Re(J^H vec c)), `jacobian()` is the dense J."""

    __slots__ = ("d", "value", "_pull", "jacobian", "_norms")

    def __init__(self, d: np.ndarray, value: np.ndarray, pull, jacobian, norms):
        self.d, self.value, self._pull, self.jacobian = d, value, pull, jacobian
        self._norms = norms

    def __call__(self, cotangent) -> np.ndarray:
        return self._pull(cotangent)

    def frobenius2(self, H: np.ndarray | None = None):
        """(||J||_F^2, ||H0 J||_F^2), H0 the block-diagonal channel of the
        (K, N_r, N_t) blocks H (None: only ||J||_F^2, with H0 = I). Exact, from
        the channel's block Grams Q_k = H_k^H H_k and J's (_block_norms)."""
        Q = (np.ones((self.value.shape[0], 1, 1)) if H is None
             else H.conj().transpose(0, 2, 1) @ H)
        j2, hj2 = self._norms(Q)
        return j2, None if H is None else hj2


def _block_norms(C: np.ndarray, Q: np.ndarray):
    """(sum_k tr C_k, sum_k tr(Q_k C_k)), C_k = sum_t J_kt J_kt^H the (K, N_t, N_t)
    Grams of the rows J_kt of J that channel block k carries in slot t."""
    return float(np.einsum("kaa->", C).real), float(np.einsum("kab,kba->", Q, C).real)


class Encoder:
    """Interface: deterministic encode plus an exact adjoint of its linearization."""

    input_dim: int
    output_shape: tuple[int, int]

    def linearize(self, d: np.ndarray) -> Linearization:
        raise NotImplementedError

    # Views of linearize. Each concrete class binds them in its own body, so
    # they can be wrapped per class (perfbench/spans.py times them apart).
    def encode(self, d: np.ndarray) -> np.ndarray:
        return self.linearize(d).value

    def vjp(self, d: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
        return self.linearize(d)(cotangent)

    def jacobian(self, d: np.ndarray) -> np.ndarray:
        """Dense Jacobian, m x n complex with m = N_t*K*T."""
        return self.linearize(d).jacobian()

    def _check_input(self, d) -> np.ndarray:
        d = np.asarray(d, dtype=np.float64).ravel()
        if d.size != self.input_dim:
            raise ValueError(f"source length {d.size}, encoder expects {self.input_dim}")
        if not np.all(np.isfinite(d)):
            raise NonFiniteInputError("source vector contains non-finite entries")
        return d

    def _check_cotangent(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=np.complex128)
        if c.shape != self.output_shape:
            raise ValueError(f"cotangent shape {c.shape}, expected {self.output_shape}")
        return c


_VIEWS = (Encoder.encode, Encoder.vjp, Encoder.jacobian)


class _MatrixEncoder(Encoder):
    """An encoder on a fixed complex matrix A of shape (N_t*K*T, n)."""

    def __init__(self, A: np.ndarray, output_shape: tuple[int, int]):
        A = np.asarray(A, dtype=np.complex128)
        rows, cols = output_shape
        if A.ndim != 2 or A.shape[0] != rows * cols:
            raise ValueError(f"A must have {rows * cols} rows for output {output_shape}")
        self.A = A
        self.output_shape = (int(rows), int(cols))
        self.input_dim = A.shape[1]
        self._grams: dict[int, np.ndarray] = {}

    def _gram(self, Q: np.ndarray) -> np.ndarray:
        """[[R R^T, -i R I^T], [i I R^T, I I^T]], (K, T, 2, N_t, 2, N_t), with R
        and I the rows of Re A and Im A that block k carries in slot t; taken
        once per block size N_t of Q."""
        N_t = Q.shape[1]
        if N_t not in self._grams:
            K, T, n = self.output_shape[0] // N_t, self.output_shape[1], self.input_dim
            A4 = self.A.reshape(K, N_t, T, n).transpose(0, 2, 1, 3)
            S = np.concatenate([A4.real, A4.imag], axis=2)  # (K, T, 2N_t, n)
            G = (S @ S.transpose(0, 1, 3, 2)).reshape(K, T, 2, N_t, 2, N_t)
            self._grams[N_t] = G * np.array([[1, -1j], [1j, 1]])[:, None, :, None]
        return self._grams[N_t]


class LinearEncoder(_MatrixEncoder):
    """X = reshape(A d), with A complex of shape (N_t*K*T, n)."""

    def linearize(self, d: np.ndarray) -> Linearization:
        d = self._check_input(d)

        def pullback(cotangent):
            # Re(c^H A) = Re(A^H c) without a conjugate copy of A.
            return 2.0 * (self._check_cotangent(cotangent).ravel().conj() @ self.A).real

        def norms(Q):  # J = A, so C_k = sum_t A_kt A_kt^H: the Gram's blocks, summed
            return _block_norms(self._gram(Q).sum(axis=(1, 2, 4)), Q)

        return Linearization(d, (self.A @ d).reshape(self.output_shape), pullback,
                             lambda: self.A, norms)

    encode, vjp, jacobian = _VIEWS


class SaturatingEncoder(_MatrixEncoder):
    """X = tanh(Re(g A d)) + i tanh(Im(g A d)), reshaped.

    Output entries are bounded in magnitude by sqrt(2) and the map is
    smooth everywhere, which makes it a convenient nonlinear test bed.
    """

    def __init__(self, A: np.ndarray, gain: float, output_shape: tuple[int, int]):
        super().__init__(A, output_shape)
        if gain <= 0:
            raise ValueError("gain must be > 0")
        self.gain = float(gain)

    def linearize(self, d: np.ndarray) -> Linearization:
        d = self._check_input(d)
        z = self.gain * (self.A @ d)
        t_re, t_im = np.tanh(z.real), np.tanh(z.imag)
        dr = 1.0 - t_re ** 2  # tanh' on each part
        di = 1.0 - t_im ** 2

        def pullback(cotangent):
            c = self._check_cotangent(cotangent).ravel()
            out = self.A.real.T @ (dr * c.real) + self.A.imag.T @ (di * c.imag)
            return 2.0 * self.gain * out

        def jacobian():
            return self.gain * (dr[:, None] * self.A.real + 1j * di[:, None] * self.A.imag)

        def norms(Q):
            # J_kt = g (diag(dr) R + i diag(di) I), so C_k weighs the Gram by
            # w = g (dr, di) on both sides before summing its blocks.
            G = self._gram(Q)
            w = self.gain * np.stack([dr, di]).reshape(2, G.shape[0], G.shape[3], -1)
            return _block_norms(np.einsum("pkat,ktpaqb,qkbt->kab", w, G, w), Q)

        return Linearization(d, (t_re + 1j * t_im).reshape(self.output_shape), pullback,
                             jacobian, norms)

    encode, vjp, jacobian = _VIEWS


class PowerNormalizedEncoder(Encoder):
    """Wrap a base encoder with exact per-realization power normalization.

    encode(d) = c(d) f(d) with c(d) = sqrt(P m) / ||f(d)||_F, m = N_t*K*T,
    so the average per-symbol power is exactly P for every input. The
    scaling is part of the map and is differentiated exactly in vjp.
    """

    def __init__(self, base: Encoder, P: float):
        if P <= 0:
            raise ValueError("P must be > 0")
        self.base = base
        self.P = float(P)
        self.output_shape = base.output_shape
        self.input_dim = base.input_dim
        self._target = np.sqrt(P * self.output_shape[0] * self.output_shape[1])

    def linearize(self, d: np.ndarray) -> Linearization:
        base = self.base.linearize(d)
        F = base.value
        nrm = np.linalg.norm(F)
        if nrm == 0:
            raise ValueError("base encoder output is zero; no feasible power scaling")
        scale = self._target / nrm
        radial = base(F)  # = 2 Re(J^H F)

        # d(c F)/dd = c J + F (grad c)^T with grad c = -c Re(J^H F)/||F||^2.
        def pullback(cotangent):
            c = self._check_cotangent(cotangent)
            w = float(np.sum((c.conj() * F).real))  # Re <c, F>
            return scale * base(c) - (scale * w / nrm**2) * radial

        def jacobian():
            J, f = base.jacobian(), F.ravel()
            grad_c = -(scale / nrm**2) * (J.conj().T @ f).real
            return scale * J + np.outer(f, grad_c)

        def norms(Q):
            # J_PN = s J + F g^T with g = grad c = -(s / (2||F||^2)) radial, so
            # ||G J_PN||^2 = s^2 ||G J||^2 + s g.pull(G^H G F) + ||G F||^2 ||g||^2
            # for G = I and G = H0 (H0^H H0 F = Q_k F_k per block). Where J_PN = 0
            # (a linear base, n = 1) the terms cancel, to rounding below 0.
            g = -(scale / (2.0 * nrm**2)) * radial
            gg = float(np.dot(g, g))
            j2, hj2 = base._norms(Q)
            QF = (Q @ F.reshape(Q.shape[0], Q.shape[1], -1)).reshape(F.shape)
            j2 = scale**2 * j2 + scale * float(np.dot(g, radial)) + nrm**2 * gg
            hj2 = (scale**2 * hj2 + scale * float(np.dot(g, base(QF)))
                   + float(np.vdot(F, QF).real) * gg)
            return max(j2, 0.0), max(hj2, 0.0)

        return Linearization(base.d, scale * F, pullback, jacobian, norms)

    encode, vjp, jacobian = _VIEWS


def jacobian_frobenius2(enc: Encoder, d: np.ndarray) -> float:
    """||J||_F^2 of the encode Jacobian at d (Linearization.frobenius2)."""
    return enc.linearize(d).frobenius2()[0]


# ---------------------------------------------------------------------------
# Encoder parameter files: a small text format, dims then row-major entries.
# ---------------------------------------------------------------------------

_MAGIC = "pvdmimo-encoder v1"


def save_encoder(enc: Encoder, path) -> None:
    """Write encoder parameters as text: header (type, dims, gain), then
    one 're im' line per matrix entry in row-major order."""
    if isinstance(enc, SaturatingEncoder):
        kind, gain = "saturating", enc.gain
    elif isinstance(enc, LinearEncoder):
        kind, gain = "linear", None
    else:
        raise TypeError(f"cannot serialize encoder of type {type(enc).__name__}")
    rows, cols = enc.output_shape
    with open(path, "w") as fh:
        fh.write(f"{_MAGIC}\n")
        fh.write(f"type {kind}\n")
        fh.write(f"out_rows {rows}\n")
        fh.write(f"out_cols {cols}\n")
        fh.write(f"input_dim {enc.input_dim}\n")
        if gain is not None:
            fh.write(f"gain {gain!r}\n")
        fh.write("entries\n")
        for v in enc.A.ravel():
            fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")


def load_encoder(path) -> Encoder:
    """Inverse of save_encoder."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC} file")
    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i] != "entries":
        key, _, val = lines[i].partition(" ")
        header[key] = val
        i += 1
    if i == len(lines):
        raise ValueError(f"{path}: missing 'entries' section")
    kind = header["type"]
    rows, cols = int(header["out_rows"]), int(header["out_cols"])
    n = int(header["input_dim"])
    vals = []
    for ln in lines[i + 1:]:
        if not ln.strip():
            continue
        re_s, im_s = ln.split()
        vals.append(complex(float(re_s), float(im_s)))
    A = np.array(vals, dtype=np.complex128).reshape(rows * cols, n)
    if kind == "linear":
        return LinearEncoder(A, (rows, cols))
    if kind == "saturating":
        return SaturatingEncoder(A, float(header["gain"]), (rows, cols))
    raise ValueError(f"{path}: unknown encoder type {kind!r}")
