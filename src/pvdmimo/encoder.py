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
many are pushed through one point, and frobenius2(H) gives the Jacobian
norms ||J||_F^2 and ||H0 J||_F^2 (dense, or Hutchinson probes through the
pullback for a Jacobian too large to form). encode, vjp and jacobian are
views of it.

LinearEncoder applies a fixed complex matrix; SaturatingEncoder squashes
real and imaginary parts elementwise through tanh (a smooth, bounded
nonlinearity); PowerNormalizedEncoder rescales any base encoder so the
average per-symbol power is exactly P, with the rescaling differentiated
exactly.
"""

from __future__ import annotations

import numpy as np

from .channel import block_adjoint, block_product


class NonFiniteInputError(ValueError):
    """A source vector handed to an encoder has a non-finite entry."""


# Largest Jacobian (n * m entries) whose Frobenius norms are taken from the
# dense matrix; above it they are Hutchinson estimates.
EXACT_MAX_ENTRIES = 1 << 16


class Linearization:
    """An encoder at one point d: `value` = encode(d), calling it pulls a
    cotangent back (c -> 2 Re(J^H vec c)), `jacobian()` is the dense J."""

    __slots__ = ("d", "value", "_pull", "jacobian")

    def __init__(self, d: np.ndarray, value: np.ndarray, pull, jacobian):
        self.d, self.value, self._pull, self.jacobian = d, value, pull, jacobian

    def __call__(self, cotangent) -> np.ndarray:
        return self._pull(cotangent)

    def frobenius2(self, H: np.ndarray | None = None, probes: int = 8,
                   rng: np.random.Generator | None = None):
        """(||J||_F^2, ||H0 J||_F^2), H0 the block-diagonal channel of the
        (K, N_r, N_t) blocks H; the second is None when H is None.

        Exact (dense Jacobian) when n * m is at most EXACT_MAX_ENTRIES;
        otherwise unbiased Hutchinson estimates from `probes` real +-1 probe
        matrices V each: ||G J||_F^2 ~ (||pull(G^H V)||^2 + ||pull(i G^H V)||^2)
        / 4, with all ||J|| probes drawn from rng before all ||H0 J|| probes.
        """
        if self.d.size * self.value.size <= EXACT_MAX_ENTRIES:
            J = self.jacobian()
            HJ = None if H is None else block_product(H, J.reshape(*self.value.shape, -1))
            return _abs2_sum(J), None if HJ is None else _abs2_sum(HJ)
        j2 = self._hutchinson(self.value.shape, probes, rng)
        if H is None:
            return j2, None
        return j2, self._hutchinson((H.shape[0] * H.shape[1], self.value.shape[1]), probes,
                                    rng, lambda V: block_adjoint(H, V))

    def _hutchinson(self, probe_shape, probes, rng, to_cotangent=lambda W: W) -> float:
        """Hutchinson estimate of ||G J||_F^2 with to_cotangent(V) = G^H V.
        Each probe is one rng.integers call, in order, and costs two pullbacks."""
        if rng is None:
            raise ValueError("rng is required for the Hutchinson estimate")
        acc = 0.0
        for _ in range(probes):
            V = rng.integers(0, 2, size=probe_shape) * 2.0 - 1.0
            W = to_cotangent(V.astype(np.complex128))
            g_re, g_im = self(W), self(1j * W)
            acc += 0.25 * (np.dot(g_re, g_re) + np.dot(g_im, g_im))
        return float(acc / probes)


def _abs2_sum(M: np.ndarray) -> float:
    return float(np.sum((M * M.conj()).real))


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


class LinearEncoder(Encoder):
    """X = reshape(A d), with A complex of shape (N_t*K*T, n)."""

    def __init__(self, A: np.ndarray, output_shape: tuple[int, int]):
        A = np.asarray(A, dtype=np.complex128)
        rows, cols = output_shape
        if A.ndim != 2 or A.shape[0] != rows * cols:
            raise ValueError(f"A must have {rows * cols} rows for output {output_shape}")
        self.A = A
        self.output_shape = (int(rows), int(cols))
        self.input_dim = A.shape[1]

    def linearize(self, d: np.ndarray) -> Linearization:
        d = self._check_input(d)

        def pullback(cotangent):
            # Re(c^H A) = Re(A^H c) without a conjugate copy of A.
            return 2.0 * (self._check_cotangent(cotangent).ravel().conj() @ self.A).real

        return Linearization(d, (self.A @ d).reshape(self.output_shape), pullback,
                             lambda: self.A)

    encode, vjp, jacobian = _VIEWS


class SaturatingEncoder(Encoder):
    """X = tanh(Re(g A d)) + i tanh(Im(g A d)), reshaped.

    Output entries are bounded in magnitude by sqrt(2) and the map is
    smooth everywhere, which makes it a convenient nonlinear test bed.
    """

    def __init__(self, A: np.ndarray, gain: float, output_shape: tuple[int, int]):
        A = np.asarray(A, dtype=np.complex128)
        rows, cols = output_shape
        if A.ndim != 2 or A.shape[0] != rows * cols:
            raise ValueError(f"A must have {rows * cols} rows for output {output_shape}")
        if gain <= 0:
            raise ValueError("gain must be > 0")
        self.A = A
        self.gain = float(gain)
        self.output_shape = (int(rows), int(cols))
        self.input_dim = A.shape[1]

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

        return Linearization(d, (t_re + 1j * t_im).reshape(self.output_shape), pullback,
                             jacobian)

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

        return Linearization(base.d, scale * F, pullback, jacobian)

    encode, vjp, jacobian = _VIEWS


def jacobian_frobenius2(enc: Encoder, d: np.ndarray, probes: int = 8,
                        rng: np.random.Generator | None = None) -> float:
    """||J||_F^2 of the encode Jacobian at d, as Linearization.frobenius2
    gives it (exact or a Hutchinson estimate from `probes` probes)."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    return enc.linearize(d).frobenius2(None, probes, rng)[0]


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
