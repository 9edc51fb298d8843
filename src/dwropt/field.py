"""Fine-scale data: raster-backed scalar fields, coefficient tensors and
divergence-free advection fields.

All field objects are immutable after construction and may be evaluated
concurrently.  Raster values are stored row-major with row 0 at the bottom of
the extent (y increases with the row index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OutOfDomainError

_ID = np.eye(2)


@dataclass(frozen=True)
class RasterField:
    """Pixel raster covering a rectangular extent.

    ``values`` has shape ``(ny, nx)`` and dtype uint8 (8-bit grayscale) or
    float64.  Coefficient lookups are piecewise constant per pixel; stream
    functions use the raster values as nodes of an ``(nx-1, ny-1)`` cell grid
    and interpolate bilinearly.
    """

    values: np.ndarray
    origin: tuple = (0.0, 0.0)
    size: tuple = (1.0, 1.0)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.size == 0:
            raise ConfigurationError("raster values must be a non-empty 2-d array")
        if v.dtype != np.uint8:
            v = v.astype(float)
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def nx(self):
        return self.values.shape[1]

    @property
    def ny(self):
        return self.values.shape[0]

    @property
    def pixel_size(self):
        return (self.size[0] / self.nx, self.size[1] / self.ny)

    def _check_inside(self, p):
        tol = 1e-12 * max(self.size)
        bad = (
            (p[:, 0] < self.origin[0] - tol)
            | (p[:, 0] > self.origin[0] + self.size[0] + tol)
            | (p[:, 1] < self.origin[1] - tol)
            | (p[:, 1] > self.origin[1] + self.size[1] + tol)
        )
        if np.any(bad):
            k = int(np.argmax(bad))
            raise OutOfDomainError(f"point {tuple(p[k])} lies outside the raster extent")

    def nearest(self, points):
        """Per-pixel (piecewise constant) lookup."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        self._check_inside(p)
        ix = np.clip(
            np.floor((p[:, 0] - self.origin[0]) / self.pixel_size[0]).astype(int), 0, self.nx - 1
        )
        iy = np.clip(
            np.floor((p[:, 1] - self.origin[1]) / self.pixel_size[1]).astype(int), 0, self.ny - 1
        )
        return self.values[iy, ix].astype(float)

    def interp(self, points):
        """Continuous bilinear interpolation with raster values as grid nodes."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        hx = self.size[0] / (self.nx - 1) if self.nx > 1 else self.size[0]
        hy = self.size[1] / (self.ny - 1) if self.ny > 1 else self.size[1]
        tx = np.clip((p[:, 0] - self.origin[0]) / hx, 0.0, self.nx - 1)
        ty = np.clip((p[:, 1] - self.origin[1]) / hy, 0.0, self.ny - 1)
        ix = np.minimum(np.floor(tx).astype(int), max(self.nx - 2, 0))
        iy = np.minimum(np.floor(ty).astype(int), max(self.ny - 2, 0))
        fx = tx - ix
        fy = ty - iy
        v = self.values.astype(float)
        ix1 = np.minimum(ix + 1, self.nx - 1)
        iy1 = np.minimum(iy + 1, self.ny - 1)
        return (
            v[iy, ix] * (1 - fx) * (1 - fy)
            + v[iy, ix1] * fx * (1 - fy)
            + v[iy1, ix] * (1 - fx) * fy
            + v[iy1, ix1] * fx * fy
        )

    def to_pgm(self, path):
        """Write as binary PGM (P5, maxval 255); 8-bit rasters only.

        Rows are written in array order (row 0 first), which round-trips
        bit-exactly through :meth:`from_pgm`.
        """
        if self.values.dtype != np.uint8:
            raise ConfigurationError("PGM export requires an 8-bit raster")
        with open(path, "wb") as fh:
            fh.write(f"P5\n{self.nx} {self.ny}\n255\n".encode("ascii"))
            fh.write(self.values.tobytes())

    @classmethod
    def from_pgm(cls, path, origin=(0.0, 0.0), size=(1.0, 1.0)):
        """Read a binary PGM (P5, maxval 255) as :meth:`to_pgm` writes it; a
        file that cannot be read or is malformed raises ConfigurationError."""
        try:
            with open(path, "rb") as fh:
                magic, line = fh.readline().strip(), fh.readline()
                while line.startswith(b"#"):
                    line = fh.readline()
                nx, ny = (int(t) for t in line.split())
                maxval, data = int(fh.readline()), fh.read(max(nx * ny, 0))
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read the PGM file {path}: {exc}") from exc
        if (magic, maxval) != (b"P5", 255) or min(nx, ny) <= 0 or len(data) != nx * ny:
            raise ConfigurationError(
                f"{path} is not a complete 8-bit binary PGM: magic {magic!r}, size {nx} x {ny}, "
                f"maxval {maxval}, {len(data)} pixels"
            )
        return cls(values=np.frombuffer(data, np.uint8).reshape(ny, nx), origin=origin, size=size)


def _convolve1d_reflect(arr, kernel, axis):
    """Separable convolution with reflect padding (deterministic, exact)."""
    r = len(kernel) // 2
    if r == 0:
        return arr * kernel[0]
    moved = np.moveaxis(arr, axis, 0)
    padded = np.pad(moved, ((r, r),) + ((0, 0),) * (moved.ndim - 1), mode="reflect")
    out = np.zeros_like(moved, dtype=float)
    n = moved.shape[0]
    for t, w in enumerate(kernel):
        out += w * padded[t : t + n]
    return np.moveaxis(out, 0, axis)


def correlated_noise(nx, ny, sigma_px, seed):
    """Seeded standard-normal noise convolved with a Gaussian kernel of
    standard deviation ``sigma_px`` pixels, truncated at 4 sigma."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((ny, nx))
    if sigma_px <= 0.0:
        return noise
    r = max(int(np.ceil(4.0 * sigma_px)), 1)
    k = np.exp(-0.5 * (np.arange(-r, r + 1) / sigma_px) ** 2)
    k /= k.sum()
    out = _convolve1d_reflect(noise, k, axis=1)
    return _convolve1d_reflect(out, k, axis=0)


def gen_gaussian_raster(nx, ny, corr_len, seed, origin=(0.0, 0.0), size=(1.0, 1.0)):
    """8-bit raster of a Gaussian random field with Gaussian correlation.

    White noise per pixel (reproducible from ``seed``) is convolved with a
    Gaussian kernel of standard deviation ``corr_len`` in domain units, then
    rescaled to span 0..255 exactly and rounded to integers.
    """
    if nx < 1 or ny < 1:
        raise ConfigurationError(f"raster resolution must be positive, got {(nx, ny)}")
    if corr_len <= 0.0:
        raise ConfigurationError(f"correlation length must be positive, got {corr_len}")
    sigma_px = corr_len * nx / size[0]
    smooth = correlated_noise(nx, ny, sigma_px, seed)
    lo, hi = smooth.min(), smooth.max()
    if hi - lo <= 0.0:
        quantized = np.zeros((ny, nx), dtype=np.uint8)
    else:
        quantized = np.rint((smooth - lo) / (hi - lo) * 255.0).astype(np.uint8)
    return RasterField(values=quantized, origin=origin, size=size)


class CoefficientField:
    """Symmetric 2x2 tensor coefficient, one of several variants.

    Construct through the classmethods; ``tensors_at`` evaluates the tensor at
    an ``(n, 2)`` array of points and returns ``(n, 2, 2)``.
    """

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = params

    @classmethod
    def constant(cls, tensor):
        t = np.asarray(tensor, dtype=float)
        if t.ndim == 0:
            t = float(t) * _ID
        if t.shape != (2, 2) or not np.allclose(t, t.T):
            raise ConfigurationError("constant coefficient must be a symmetric 2x2 tensor")
        t = 0.5 * (t + t.T)
        if not np.linalg.eigvalsh(t)[0] > 0.0:
            raise ConfigurationError("constant coefficient must be positive definite")
        return cls("constant", tensor=t)

    @classmethod
    def laminate(cls, axis, a, b, layer_width):
        if axis not in (0, 1):
            raise ConfigurationError("laminate axis must be 0 (x) or 1 (y)")
        if layer_width <= 0.0:
            raise ConfigurationError("laminate layer width must be positive")
        return cls("laminate", axis=axis, a=float(a), b=float(b), layer_width=float(layer_width))

    @classmethod
    def checkerboard(cls, a, b, tile):
        if tile <= 0.0:
            raise ConfigurationError("checkerboard tile size must be positive")
        return cls("checkerboard", a=float(a), b=float(b), tile=float(tile))

    @classmethod
    def lognormal(cls, raster, gamma):
        if gamma <= 0.0:
            raise ConfigurationError("lognormal scale gamma must be positive")
        return cls("lognormal", raster=raster, gamma=float(gamma))

    def scalar_at(self, points):
        """Isotropic scalar value per point (all variants are isotropic except
        'constant', which returns None here)."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "laminate":
            q = self.params
            layer = np.floor(p[:, q["axis"]] / q["layer_width"]).astype(int)
            return np.where(layer % 2 == 0, q["a"], q["b"])
        if self.kind == "checkerboard":
            q = self.params
            par = np.floor(p[:, 0] / q["tile"]).astype(int) + np.floor(p[:, 1] / q["tile"]).astype(int)
            return np.where(par % 2 == 0, q["a"], q["b"])
        if self.kind == "lognormal":
            q = self.params
            g = q["raster"].nearest(p)
            return q["gamma"] * np.exp(10.0 * g / 255.0)
        return None

    def tensors_at(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "constant":
            return np.broadcast_to(self.params["tensor"], (len(p), 2, 2)).copy()
        s = self.scalar_at(p)
        return s[:, None, None] * _ID


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


# Width of the cell-confinement ramp, as a fraction of the cell size.
_CELL_RISE = 0.125


def _ramp(dist, pad, rise):
    """C1 cutoff: 0 within ``pad`` of a line, 1 beyond ``pad + rise``."""
    return _smoothstep((dist - pad) / rise)


def _max_magnitude(b, raster):
    """Max |b| over a 101 x 101 probe grid spanning the raster extent."""
    xs = np.linspace(raster.origin[0], raster.origin[0] + raster.size[0], 101)
    ys = np.linspace(raster.origin[1], raster.origin[1] + raster.size[1], 101)
    gx, gy = np.meshgrid(xs, ys)
    v = b.values_at(np.column_stack([gx.ravel(), gy.ravel()]))
    return float(np.sqrt((v**2).sum(axis=1)).max())


class AdvectionField:
    """Divergence-free advection field.

    The curl of a continuous stream function (bilinear interpolation of a
    raster, tapered to zero near the boundary), taken by centered
    differences at spacing ``fd_step``.  The matching-stencil
    discrete divergence then vanishes identically, and the field is exactly
    zero on the boundary because the taper is flat within ``fd_step`` of it.

    With ``cell_size`` the stream function is additionally pinched to zero in
    bands around the lattice lines of that spacing, which confines the eddies
    to cells and makes their average over every lattice cell vanish: the
    field then carries no spurious macroscopic transport.
    """

    def __init__(self, **params):
        self.params = params

    @classmethod
    def stream(cls, raster, scale, taper_width, fd_step=None, cell_size=None):
        w, h = raster.size
        if fd_step is None:
            fd_step = 0.5 * min(raster.pixel_size)
        if taper_width >= 0.5 * min(w, h):
            raise ConfigurationError("taper width must be below half the shorter extent")
        if taper_width <= fd_step:
            raise ConfigurationError(
                f"degenerate taper: taper_width {taper_width} must exceed fd_step {fd_step}"
            )
        if cell_size is not None and 2.0 * (fd_step + _CELL_RISE * cell_size) >= cell_size:
            raise ConfigurationError("cell confinement bands must fit inside a cell")
        return cls(
            raster=raster,
            scale=float(scale),
            taper_width=float(taper_width),
            fd_step=float(fd_step),
            cell_size=cell_size,
        )

    def _stream_values(self, points):
        """Tapered stream function, extended by zero outside the extent."""
        q = self.params
        raster = q["raster"]
        ox, oy = raster.origin
        w, h = raster.size
        p = np.atleast_2d(np.asarray(points, dtype=float))
        inside = (
            (p[:, 0] >= ox) & (p[:, 0] <= ox + w) & (p[:, 1] >= oy) & (p[:, 1] <= oy + h)
        )
        out = np.zeros(len(p))
        if np.any(inside):
            pi = p[inside]
            psi = raster.interp(pi)
            pad = q["fd_step"]
            rise = q["taper_width"] - pad
            dx = np.minimum(pi[:, 0] - ox, ox + w - pi[:, 0])
            dy = np.minimum(pi[:, 1] - oy, oy + h - pi[:, 1])
            taper = _ramp(dx, pad, rise) * _ramp(dy, pad, rise)
            if q.get("cell_size"):
                cell = q["cell_size"]
                crise = _CELL_RISE * cell
                fx = (pi[:, 0] - ox) % cell
                fy = (pi[:, 1] - oy) % cell
                dlx = np.minimum(fx, cell - fx)
                dly = np.minimum(fy, cell - fy)
                taper = taper * _ramp(dlx, pad, crise) * _ramp(dly, pad, crise)
            out[inside] = psi * taper
        return out

    def values_at(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.params["fd_step"]
        scale = self.params["scale"]
        up = self._stream_values(p + [0.0, d])
        dn = self._stream_values(p - [0.0, d])
        rt = self._stream_values(p + [d, 0.0])
        lt = self._stream_values(p - [d, 0.0])
        bx = scale * (up - dn) / (2.0 * d)
        by = -scale * (rt - lt) / (2.0 * d)
        return np.column_stack([bx, by])

    def max_magnitude(self):
        """Max |b| over a probe grid (used to scale to a target)."""
        return _max_magnitude(self, self.params["raster"])


def stream_advection(raster, scale, taper_width, fd_step=None, cell_size=None):
    """Divergence-free advection field from a raster stream function."""
    return AdvectionField.stream(raster, scale, taper_width, fd_step, cell_size)


class SumAdvection:
    """Superposition of advection fields (e.g. weak drift plus strong
    cell-confined eddies); stays divergence-free by linearity."""

    def __init__(self, *components):
        if not components:
            raise ConfigurationError("sum of advection fields needs at least one component")
        self.components = components

    def values_at(self, points):
        out = self.components[0].values_at(points)
        for c in self.components[1:]:
            out = out + c.values_at(points)
        return out

    def max_magnitude(self):
        """Max |b| over a probe grid of the first component's raster."""
        return _max_magnitude(self, self.components[0].params["raster"])
