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

Users sit on axis 0: d is one source (n,) or one per user (N_u, n), and
the results carry the same leading axis. A matrix encoder's A is (m, n),
shared by all users, or (N_u, m, n).

LinearEncoder applies a fixed complex matrix; SaturatingEncoder squashes
real and imaginary parts elementwise through tanh (a smooth, bounded
nonlinearity); PowerNormalizedEncoder rescales any base encoder so each
user's average per-symbol power is exactly P, with the rescaling
differentiated exactly.
"""

from __future__ import annotations

import numpy as np


class NonFiniteInputError(ValueError):
    """A source vector handed to an encoder has a non-finite entry."""


class Linearization:
    """An encoder at its points d, (N_u, n) or one source (n,): `value` =
    encode(d), calling it pulls a cotangent shaped like `value` back
    (c -> 2 Re(J^H vec c) per user), `jacobian()` is the dense J."""

    __slots__ = ("value", "_pull", "jacobian", "_norms")

    def __init__(self, value: np.ndarray, pull, jacobian, norms):
        self.value, self._pull, self.jacobian, self._norms = value, pull, jacobian, norms

    def __call__(self, cotangent) -> np.ndarray:
        c = np.asarray(cotangent, dtype=np.complex128)
        if c.shape != self.value.shape:
            raise ValueError(f"cotangent shape {c.shape}, expected {self.value.shape}")
        return self._pull(c)

    def frobenius2(self, H: np.ndarray | None = None):
        """(||J||_F^2, ||H0 J||_F^2) per user, H0 the block-diagonal channel of
        the (K, N_r, N_t) blocks H, stacked on axis 0 like d (None: only
        ||J||_F^2, with H0 = I). Exact, from the channel's block Grams
        Q_k = H_k^H H_k and J's (_block_norms)."""
        Q = (np.ones(self.value.shape[:-1] + (1, 1)) if H is None
             else H.conj().swapaxes(-1, -2) @ H)
        j2, hj2 = self._norms(Q)
        return j2, None if H is None else hj2

    def _one(self) -> Linearization:
        """The one-source view of a linearization at one stacked point."""
        return Linearization(self.value[0], lambda c: self._pull(c[None])[0],
                             lambda: self.jacobian()[0],
                             lambda Q: [float(v[0]) for v in self._norms(Q[None])])


def _block_norms(C: np.ndarray, Q: np.ndarray, trace_C=None):
    """(sum_k tr C_k, sum_k tr(Q_k C_k)) per user, C_k = sum_t J_kt J_kt^H the
    (N_u, K, N_t, N_t) Grams of the rows J_kt of J that channel block k carries
    in slot t; trace_C is the first where it is known."""
    # tr(Q_k C_k) row by row, then summed over (k, a) in order, as the one-user
    # einsum "kab,kba->" sums; a reduction over the whole user rounds differently.
    QC = np.einsum("ukab,ukba->uka", Q, C).reshape(len(Q), -1)
    return (np.einsum("ukaa->u", C).real if trace_C is None else trace_C,
            np.add.accumulate(QC, axis=-1)[:, -1].real)


class Encoder:
    """Interface: deterministic encode plus an exact adjoint of its linearization."""

    input_dim: int
    output_shape: tuple[int, int]

    def linearize(self, d) -> Linearization:
        """The encoder at d: one source (n,) or one per user (N_u, n)."""
        d = np.asarray(d, dtype=np.float64)
        return self._linearize(d[None])._one() if d.ndim == 1 else self._linearize(d)

    def _linearize(self, d: np.ndarray) -> Linearization:
        """linearize at the rows of d, (N_u, n)."""
        raise NotImplementedError

    # Views of linearize. Each concrete class binds them in its own body, so
    # they can be wrapped per class (perfbench/spans.py times them apart).
    def encode(self, d: np.ndarray) -> np.ndarray:
        return self.linearize(d).value

    def vjp(self, d: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
        return self.linearize(d)(cotangent)

    def jacobian(self, d: np.ndarray) -> np.ndarray:
        """Dense Jacobian, m x n complex with m = N_t*K*T (per user)."""
        return self.linearize(d).jacobian()


_VIEWS = (Encoder.encode, Encoder.vjp, Encoder.jacobian)


class _MatrixEncoder(Encoder):
    """An encoder on a fixed complex matrix A of shape (m, n), shared by all
    users, or (N_u, m, n), with m = N_t*K*T."""

    def __init__(self, A: np.ndarray, output_shape: tuple[int, int]):
        A = np.asarray(A, dtype=np.complex128)
        rows, cols = output_shape
        if A.ndim not in (2, 3) or A.shape[-2] != rows * cols:
            raise ValueError(f"A must be (m, n) or (N_u, m, n) with m = {rows * cols} rows "
                             f"for output {output_shape}")
        self.A = A
        self.output_shape = (int(rows), int(cols))
        self.input_dim = A.shape[-1]
        self._grams: dict = {}

    def _check_input(self, d: np.ndarray) -> np.ndarray:
        users = d.shape[0] if self.A.ndim == 2 else self.A.shape[0]
        if d.shape != (users, self.input_dim):
            raise ValueError(f"sources of shape {d.shape}, encoder expects "
                             f"({users}, {self.input_dim})")
        if not np.isfinite(d).all():
            raise NonFiniteInputError("source vector contains non-finite entries")
        return d

    def _gram(self, Q: np.ndarray) -> np.ndarray:
        """[[R R^T, -i R I^T], [i I R^T, I I^T]], (N_u or 1, K, T, 2, N_t, 2, N_t),
        with R and I the rows of Re A and Im A that block k carries in slot t;
        taken once per block size N_t of Q."""
        N_t = Q.shape[-1]
        if N_t not in self._grams:
            K, T, n = self.output_shape[0] // N_t, self.output_shape[1], self.input_dim
            A4 = self.A.reshape(-1, K, N_t, T, n).transpose(0, 1, 3, 2, 4)
            S = np.concatenate([A4.real, A4.imag], axis=3)  # (N_u, K, T, 2N_t, n)
            G = (S @ S.swapaxes(-1, -2)).reshape(-1, K, T, 2, N_t, 2, N_t)
            self._grams[N_t] = G * np.array([[1, -1j], [1j, 1]])[:, None, :, None]
        return self._grams[N_t]


class LinearEncoder(_MatrixEncoder):
    """X = reshape(A d), with A complex of shape ((N_u,) N_t*K*T, n)."""

    def _linearize(self, d: np.ndarray) -> Linearization:
        d = self._check_input(d)
        users = d.shape[0]

        def pullback(c):
            # Re(c^H A) = Re(A^H c) without a conjugate copy of A.
            return 2.0 * (c.reshape(users, 1, -1).conj() @ self.A)[:, 0].real

        def norms(Q):
            # J = A, so C_k = sum_t A_kt A_kt^H (the Gram's blocks, summed) and its
            # trace do not depend on d: both are kept per block size and user count.
            key = Q.shape[-1], len(Q)
            if key not in self._grams:
                C = self._gram(Q).sum(axis=(2, 3, 5))
                C = np.repeat(C, len(Q) // len(C), axis=0)
                self._grams[key] = C, np.einsum("ukaa->u", C).real
            C, trace_C = self._grams[key]
            return _block_norms(C, Q, trace_C)

        shape = (users,) + self.output_shape
        return Linearization((self.A @ d[:, :, None]).reshape(shape), pullback,
                             lambda: np.broadcast_to(self.A, shape[:1] + self.A.shape[-2:]), norms)

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

    def _linearize(self, d: np.ndarray) -> Linearization:
        d = self._check_input(d)
        users = d.shape[0]
        z = self.gain * (self.A @ d[:, :, None])[:, :, 0]
        t_re, t_im = np.tanh(z.real), np.tanh(z.imag)
        dr = 1.0 - t_re ** 2  # tanh' on each part
        di = 1.0 - t_im ** 2

        def pullback(c):
            c = c.reshape(users, -1, 1)
            out = (self.A.real.swapaxes(-1, -2) @ (dr[:, :, None] * c.real)
                   + self.A.imag.swapaxes(-1, -2) @ (di[:, :, None] * c.imag))
            return 2.0 * self.gain * out[:, :, 0]

        def jacobian():
            return self.gain * (dr[:, :, None] * self.A.real + 1j * di[:, :, None] * self.A.imag)

        def norms(Q):
            # J_kt = g (diag(dr) R + i diag(di) I), so C_k weighs the Gram by
            # w = g (dr, di) on both sides before summing its blocks.
            G = self._gram(Q)  # (N_u or 1, K, T, 2, N_t, 2, N_t)
            w = self.gain * np.stack([dr, di], 1).reshape(users, 2, G.shape[1], -1, G.shape[2])
            return _block_norms(np.einsum("upkat,uktpaqb,uqkbt->ukab", w, G, w), Q)

        return Linearization((t_re + 1j * t_im).reshape((users,) + self.output_shape),
                             pullback, jacobian, norms)

    encode, vjp, jacobian = _VIEWS


class PowerNormalizedEncoder(Encoder):
    """Wrap a base encoder with exact per-realization power normalization.

    encode(d) = c(d) f(d) with c(d) = sqrt(P m) / ||f(d)||_F, m = N_t*K*T,
    so each user's average per-symbol power is exactly P for every input.
    The scaling is part of the map and is differentiated exactly in vjp.
    """

    def __init__(self, base: Encoder, P: float):
        if P <= 0:
            raise ValueError("P must be > 0")
        self.base = base
        self.output_shape = base.output_shape
        self.input_dim = base.input_dim
        self._target = np.sqrt(P * self.output_shape[0] * self.output_shape[1])

    def _linearize(self, d: np.ndarray) -> Linearization:
        base = self.base.linearize(d)
        F = base.value
        users = F.shape[0]
        f = F.reshape(users, -1)
        nrm = np.sqrt(np.vecdot(f.real, f.real) + np.vecdot(f.imag, f.imag))  # as np.linalg.norm
        if 0.0 in nrm.tolist():
            raise ValueError("base encoder output is zero; no feasible power scaling")
        scale = self._target / nrm
        # float_power is the libm pow of scalar ** 2; array ** 2 squares and can
        # round the last bit differently.
        nrm2, scale2 = np.float_power(nrm, 2), np.float_power(scale, 2)
        radial = base._pull(F)  # = 2 Re(J^H F)

        # d(c F)/dd = c J + F (grad c)^T with grad c = -c Re(J^H F)/||F||^2.
        def pullback(c):
            w = (c.conj() * F).real.reshape(users, -1).sum(axis=-1)  # Re <c, F>
            return scale[:, None] * base._pull(c) - (scale * w / nrm2)[:, None] * radial

        def jacobian():
            J = base.jacobian()
            JhF = (J.conj().swapaxes(-1, -2) @ f[..., None])[..., 0]
            grad_c = -(scale / nrm2)[:, None] * JhF.real
            return scale[:, None, None] * J + f[:, :, None] * grad_c[:, None, :]

        def norms(Q):
            # J_PN = s J + F g^T with g = grad c = -(s / (2||F||^2)) radial, so
            # ||G J_PN||^2 = s^2 ||G J||^2 + s g.pull(G^H G F) + ||G F||^2 ||g||^2
            # for G = I and G = H0 (H0^H H0 F = Q_k F_k per block). Where J_PN = 0
            # (a linear base, n = 1) the terms cancel, to rounding below 0.
            g = -(scale / (2.0 * nrm2))[:, None] * radial
            gg = np.vecdot(g, g)
            j2, hj2 = base._norms(Q)
            QF = (Q @ F.reshape(Q.shape[:3] + (-1,))).reshape(F.shape)
            j2 = scale2 * j2 + scale * np.vecdot(g, radial) + nrm2 * gg
            hj2 = (scale2 * hj2 + scale * np.vecdot(g, base._pull(QF))
                   + np.vecdot(f, QF.reshape(users, -1)).real * gg)
            return np.maximum(j2, 0.0), np.maximum(hj2, 0.0)

        return Linearization(scale[:, None, None] * F, pullback, jacobian, norms)

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
    if not isinstance(enc, _MatrixEncoder) or enc.A.ndim != 2:
        raise TypeError(f"cannot serialize {type(enc).__name__}: one (m, n) matrix only")
    kind, gain = (("saturating", enc.gain) if isinstance(enc, SaturatingEncoder)
                  else ("linear", None))
    rows, cols = enc.output_shape
    header = [_MAGIC, f"type {kind}", f"out_rows {rows}", f"out_cols {cols}",
              f"input_dim {enc.input_dim}"] + ([] if gain is None else [f"gain {gain!r}"])
    with open(path, "w") as fh:
        fh.write("\n".join(header + ["entries", ""]))
        for v in enc.A.ravel():
            fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")


def load_encoder(path) -> Encoder:
    """Inverse of save_encoder."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC} file")
    if "entries" not in lines:
        raise ValueError(f"{path}: missing 'entries' section")
    i = lines.index("entries")
    header = dict(ln.partition(" ")[::2] for ln in lines[1:i])
    kind = header["type"]
    rows, cols = int(header["out_rows"]), int(header["out_cols"])
    n = int(header["input_dim"])
    vals = [complex(*map(float, ln.split())) for ln in lines[i + 1:] if ln.strip()]
    A = np.array(vals, dtype=np.complex128).reshape(rows * cols, n)
    if kind == "linear":
        return LinearEncoder(A, (rows, cols))
    if kind == "saturating":
        return SaturatingEncoder(A, float(header["gain"]), (rows, cols))
    raise ValueError(f"{path}: unknown encoder type {kind!r}")
