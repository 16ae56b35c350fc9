"""Coefficient families, the excised principal symbol, its square root, the
auxiliary symbol H, and empirical symbol-estimate reports.

A family packages the principal symbol ``a(t, x, xi)`` (units of ``<xi>^2``)
with closed-form first derivatives, optional lower-order coefficients
``b0(t,x)`` (on ``d/dt``), ``b1(t,x)`` (on ``d/dx``, entering the symbol as
``i*b1*xi``) and ``b2(t,x)`` (zero order), the structure pair, the spectral
shift ``k`` and the blow-up exponents ``p, q, r``.

The excision replaces ``a`` by the elliptic reference ``omega^2 <xi>_k^2``
for ``t Phi(x) <xi>_k <= 1``, blending smoothly up to ``2`` by the fixed :func:`cut`:

    ``atilde = cut(s) * omega^2 <xi>_k^2 + (1 - cut(s)) * a``,  ``s = t Phi <xi>_k``.

Its root ``tau = sqrt(atilde)`` and the symbol

    ``sigma(H) = -(i/2) * omega <xi>_k * (1 - cut(s/3)) / tau``

have disjoint time supports with ``a - atilde`` (cut(s/3) = 1 wherever
cut(s) > 0), which is what makes the first-order reduction exact for
multiplier families.  Off the blend each is a sum of products ``w(x) m(xi)`` of its
family's separable factors, a form its method declares (:func:`off_blend`).

Estimate reports fit the minimal constants and time exponents of symbol-class
inequalities on sample lattices; blow-up orders are fitted on windowed
envelopes (per-window maxima) because the built-in oscillations make pointwise
log-fits ill-posed at cosine zeros.
"""

from __future__ import annotations

import inspect
import math
from collections import namedtuple
from dataclasses import asdict, dataclass
from functools import cache, reduce
from operator import mul
from typing import Callable

import numpy as np

from .quantize import _even_x
from .structure import (SingularityProfile, StructurePair, Zone, bracket, classify_zone,
                        constant_pair, make_profile, one, poly_pair, zero)

__all__ = [
    "cut",
    "dcut",
    "cut_sides",
    "CoefficientFamily",
    "separable_family",
    "example_coefficient",
    "theorem_coefficient",
    "free_wave",
    "reference_wave",
    "ExcisedCoefficient",
    "excise",
    "EllipticityError",
    "CharacteristicRoot",
    "char_root",
    "HSymbol",
    "h_symbol",
    "off_blend",
    "QuadratureError",
    "TimeQuadrature",
    "l1_defect",
    "SampleLattice",
    "graded_lattice",
    "FitEntry",
    "FitReport",
    "symbol_class_report",
    "RootReport",
    "root_estimate_report",
    "fit_blowup_exponents",
    "fit_power_law",
]


# --------------------------------------------------------------------------
# smooth excision cutoff
# --------------------------------------------------------------------------


def cut(s):
    """The excision cutoff ``a / (a + b)``, ``a = exp(-1/(2-s))``, ``b = exp(-1/(s-1))``:
    exactly 1 on ``(-inf, 1]`` (and at NaN), exactly 0 on ``[2, inf)``, monotone
    non-increasing in between.  The exponentials are evaluated on the open window
    ``1 < s < 2`` only; every other entry is one of the two constants.
    """
    s = np.asarray(s, dtype=float)
    out = np.where(s >= 2.0, 0.0, 1.0)
    mid = (s > 1.0) & (s < 2.0)
    w = s[mid]
    a, b = np.exp(-1.0 / (2.0 - w)), np.exp(-1.0 / (w - 1.0))
    out[mid] = a / (a + b)
    return out


def dcut(s):
    """The exact derivative of :func:`cut`, evaluated on the open window ``1 < s < 2``
    only and 0 elsewhere."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 1.0) & (s < 2.0)
    ra, rb = 2.0 - s[mid], s[mid] - 1.0
    a, b = np.exp(-1.0 / ra), np.exp(-1.0 / rb)
    out[mid] = -(a / (ra * ra) * b + a * (b / (rb * rb))) / (a + b) ** 2
    return out


def cut_sides(t, phi, br, scale: float = 1.0):
    """``(low, high)`` over the columns ``br`` (``<xi>_k``) of a grid with ``Phi`` values
    ``phi``: ``low`` where ``cut(s / scale) == 1`` at every ``phi`` (``s / scale <= 1``,
    ``s = t Phi <xi>_k``), ``high`` where it is 0 at every ``phi`` (``s / scale >= 2``),
    with ``s`` formed in the cutoff's own floating-point order."""
    return t * np.max(phi) * br / scale <= 1.0, t * np.min(phi) * br / scale >= 2.0


# --------------------------------------------------------------------------
# coefficient families
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientFamily:
    """Principal symbol with derivative oracles, lower-order terms and metadata.

    ``spectral_shift`` records whether ``a`` carries the ``<xi>_k^2`` mass floor
    (ellipticity measured against ``omega^2 <xi>_k^2``) or is homogeneous of the
    form ``c(t, x) xi^2`` (measured against ``omega^2 xi^2``).  ``separable``
    optionally holds ``(g(t), w(x), m(xi))`` factors with
    ``a = g(t) w(x) m(xi)`` and ``dg`` is ``g'``; the solver uses them for exact
    fast application.  Build such families with :func:`separable_family`.
    Every coefficient broadcasts over arrays of its arguments: the solver reads
    ``g``, ``b0``, ``b1`` and ``b2`` over a column of times against a row of x.
    """

    a: Callable                 # (t, x, xi) -> real
    dt_a: Callable
    dx_a: Callable
    dxi_a: Callable
    pair: StructurePair
    k: float
    p: float
    q: float
    r: float
    T: float
    c0: float                   # ellipticity floor against the reference symbol
    spectral_shift: bool
    x_dependent: bool
    b0: Callable | None = None  # (t, x) -> real, coefficient of d/dt
    b1: Callable | None = None  # (t, x) -> real, symbol i*b1*xi
    b2: Callable | None = None  # (t, x) -> real, zero order
    separable: tuple | None = None
    dg: Callable | None = None
    profile: SingularityProfile | None = None
    osc_exponent: float | None = None  # b in the oscillation phase ~ t**-b, if any
    label: str = "family"

    def __post_init__(self):
        # the solver steps real data as real states, applies ``separable`` and ``dg``, not
        # ``a`` and ``dt_a``, and reads an x-independent family at x = 0: reject a family
        # that breaks any of these promises
        x, xi = np.repeat([0.0, 0.5, 2.0], 3), self.k * np.tile([1.0, 3.0, 7.0], 3)
        a = self.a(self.T, x, xi)
        bs = [b for b in (self.b0, self.b1, self.b2) if b is not None]
        if any(np.any(np.imag(f)) for f in [a] + [b(self.T, x) for b in bs]):
            raise ValueError(f"{self.label}: a, b0, b1 or b2 has a nonzero imaginary part")
        if self.separable is not None:
            g, w, m = self.separable
            dt = [] if self.dg is None else [(self.dt_a(self.T, x, xi), self.dg(self.T))]
            if not all(np.allclose(f, gt * w(x) * m(xi), rtol=1e-12, atol=0.0)
                       for f, gt in [(a, g(self.T))] + dt):
                raise ValueError(f"{self.label}: a or dt_a is not the product of its "
                                 "separable factors; rebuild with separable=None")
        if not self.x_dependent:
            pairs = [(a, self.a(self.T, 0.0 * x, xi))]
            pairs += [(b(self.T, x), b(self.T, 0.0 * x)) for b in bs]
            if not all(np.allclose(f, f0, rtol=1e-12, atol=0.0) for f, f0 in pairs):
                raise ValueError(f"{self.label}: flagged x_dependent=False, but a, b0, b1 "
                                 "or b2 varies in x")

    @property
    def is_multiplier(self) -> bool:
        """True when ``a`` and every symbol derived from it (excised symbol, root,
        H) are independent of x, so their operators are Fourier multipliers."""
        return not self.x_dependent and self.pair.is_constant

    def b_symbol(self, t, x, xi):
        """Lower-order symbol ``i b1(t,x) xi + b2(t,x)`` (0 where absent)."""
        out = np.zeros(np.broadcast(np.asarray(t), np.asarray(x), np.asarray(xi)).shape,
                       dtype=complex)
        if self.b1 is not None:
            out = out + 1j * np.asarray(self.b1(t, x)) * np.asarray(xi)
        if self.b2 is not None:
            out = out + np.asarray(self.b2(t, x))
        return out


def separable_family(g: Callable, dg: Callable, w: Callable, dw: Callable, m: Callable,
                     dm: Callable, **fields) -> CoefficientFamily:
    """The family ``a(t, x, xi) = g(t) w(x) m(xi)`` with derivative oracles
    ``dg w m``, ``g dw m`` and ``g w dm``, ``separable = (g, w, m)`` and ``dg``.

    Each factor maps its argument to an array of the same shape (use
    :func:`~singhyp.structure.one` and :func:`~singhyp.structure.zero` for
    constant factors), so the products broadcast over any ``(t, x, xi)``.
    ``fields`` are the remaining :class:`CoefficientFamily` fields.
    """
    return CoefficientFamily(
        a=lambda t, x, xi: g(t) * w(x) * m(xi),
        dt_a=lambda t, x, xi: dg(t) * w(x) * m(xi),
        dx_a=lambda t, x, xi: g(t) * dw(x) * m(xi),
        dxi_a=lambda t, x, xi: g(t) * w(x) * dm(xi),
        separable=(g, w, m), dg=dg, **fields)


def _xi_squared(xi):
    return np.asarray(xi, dtype=float) ** 2


def _two_xi(xi):
    return 2.0 * np.asarray(xi, dtype=float)


def _shifted_square(k: float) -> Callable:
    """``xi -> <xi>_k^2``; its derivative is ``2 xi``."""
    return lambda xi: bracket(xi, k) ** 2


def example_coefficient(kappa1: float, kappa2: float, *, T: float = 1.0,
                        k: float = 1.0) -> CoefficientFamily:
    """The built-in oscillating family with infinitely many oscillations near t=0:

    ``a(t,x) = <x>**(2 kappa1) (2 + cos <x>**(1-kappa2)) * t**(-1/4) (2 + sin t**(-1/8))``

    as the coefficient of ``xi^2``, with ``omega = <x>**kappa1``,
    ``Phi = <x>**kappa2`` and blow-up exponents ``p = 1/4``, ``q = 11/8``.
    No validated profile exists for these exponents: the admissible sigma window
    ``[3, (q-p)/(q-1)) = [3, 3)`` is empty, so ``profile`` is None.
    """
    if not (0.0 <= kappa1 <= kappa2 <= 1.0):
        raise ValueError(f"need 0 <= kappa1 <= kappa2 <= 1, got ({kappa1}, {kappa2})")
    if not kappa2 > 0.0:
        raise ValueError("kappa2 must be positive")

    e2 = 2.0 * kappa1
    ex = 1.0 - kappa2

    def cx(x):
        b = np.hypot(1.0, x)
        return b ** e2 * (2.0 + np.cos(b ** ex))

    def dcx(x):
        b = np.hypot(1.0, x)
        dbk = lambda kk: kk * x * b ** (kk - 2.0)  # d/dx <x>**kk
        return dbk(e2) * (2.0 + np.cos(b ** ex)) - b ** e2 * np.sin(b ** ex) * dbk(ex)

    def ct(t):
        t = np.asarray(t, dtype=float)
        return t ** -0.25 * (2.0 + np.sin(t ** -0.125))

    def dct(t):
        t = np.asarray(t, dtype=float)
        return (-0.25 * t ** -1.25 * (2.0 + np.sin(t ** -0.125))
                - 0.125 * t ** -0.25 * np.cos(t ** -0.125) * t ** -1.125)

    return separable_family(
        ct, dct, cx, dcx, _xi_squared, _two_xi,
        pair=poly_pair(kappa1, kappa2),
        k=k, p=0.25, q=11.0 / 8.0, r=0.0, T=T,
        c0=1.0, spectral_shift=False, x_dependent=True,
        osc_exponent=0.125,
        label=f"example11({kappa1},{kappa2})",
    )


def theorem_coefficient(p: float, q: float, *, amplitude: float = 0.5,
                        pair: StructurePair | None = None, r: float = 0.0,
                        sigma: float = 3.0, T: float = 1.0,
                        k: float = 1.0) -> CoefficientFamily:
    """A family satisfying the admissibility window, with sharp blow-up rates:

    ``a(t, x, xi) = omega(x)^2 <xi>_k^2 * g(t)``,
    ``g(t) = 2 t**-p + amplitude * sin(pi t**(1-q))``.

    ``|g| ~ 2 t**-p`` and ``|g'| ~ pi (q-1) amplitude t**-q`` (the ``t**-p-1``
    term is subdominant because ``p + 1 <= q``), so the fitted blow-up orders
    recover ``p`` and ``q``.  The phase ``pi t**(1-q)`` vanishes mod pi at
    ``t = 1``, so ``a(1, x, xi) = 2 omega^2 <xi>_k^2`` exactly.  Ellipticity
    floor ``2 min(1, T)**-p - amplitude`` (>= 3/2 with defaults).
    """
    profile = make_profile(p, q, r, sigma, T)
    if not (0.0 <= amplitude < 2.0):
        raise ValueError(f"amplitude must lie in [0, 2), got {amplitude}")
    pair = pair if pair is not None else constant_pair()

    floor = 2.0 * max(T, 1.0) ** (-p) - amplitude
    if floor <= 0:
        raise ValueError("amplitude too large for the ellipticity floor")

    def g(t):
        t = np.asarray(t, dtype=float)
        return 2.0 * t ** (-p) + amplitude * np.sin(np.pi * t ** (1.0 - q))

    def dg(t):
        t = np.asarray(t, dtype=float)
        return (-2.0 * p * t ** (-p - 1.0)
                + amplitude * np.pi * (1.0 - q) * np.cos(np.pi * t ** (1.0 - q)) * t ** (-q))

    om, dom = pair.omega, pair.domega

    def w2(x):
        return np.asarray(om(x), dtype=float) ** 2

    def dw2(x):
        return 2.0 * np.asarray(om(x), dtype=float) * np.asarray(dom(x), dtype=float)

    return separable_family(
        g, dg, w2, dw2, _shifted_square(k), _two_xi,
        pair=pair, k=k, p=p, q=q, r=r, T=T,
        c0=floor, spectral_shift=True, x_dependent=not pair.is_constant,
        profile=profile,
        osc_exponent=(q - 1.0) if amplitude > 0 else None,
        label=f"theorem(p={p},q={q})",
    )


def free_wave(speed: float = 1.0, *, T: float = 1.0, k: float = 1.0) -> CoefficientFamily:
    """Constant-coefficient wave ``a = speed^2 xi^2`` (homogeneous, no shift)."""
    c2 = speed * speed
    return separable_family(
        one, zero, one, zero, lambda xi: c2 * _xi_squared(xi), lambda xi: c2 * _two_xi(xi),
        pair=constant_pair(), k=k, p=0.0, q=1.25, r=0.0, T=T,
        c0=c2, spectral_shift=False, x_dependent=False,
        profile=make_profile(0.0, 1.25, 0.0, 3.0, T),
        label=f"free-wave(c={speed})",
    )


def reference_wave(*, T: float = 1.0, k: float = 1.0) -> CoefficientFamily:
    """The excision reference itself, ``a = omega^2 <xi>_k^2`` with the constant pair.

    Excision leaves it unchanged, every correction block vanishes beyond the
    cutoff supports, and ``tau = <xi>_k`` exactly.
    """
    return separable_family(
        one, zero, one, zero, _shifted_square(k), _two_xi,
        pair=constant_pair(), k=k, p=0.0, q=1.25, r=0.0, T=T,
        c0=1.0, spectral_shift=True, x_dependent=False,
        profile=make_profile(0.0, 1.25, 0.0, 3.0, T),
        label="reference-wave",
    )


# --------------------------------------------------------------------------
# excision and the characteristic root
# --------------------------------------------------------------------------


# _declares puts on an excision-derived symbol's method its OffBlend form: the sum of
# w(x) m(xi) over the (w, m) of low(f, t) where s / scale <= 1 and of high(f, t) where
# s / scale >= 2 (cut_sides), f the Separated factors of its excision (off_blend).  A
# declared method reads xi only through <xi>_k and its innermost family's m, and x only
# through the pair's Phi and omega and that family's w.  So it has the same values at xi
# and -xi wherever m does (Separated.even), and at x and -x wherever Phi, omega and w do
# (Separated.even_x).
OffBlend = namedtuple("OffBlend", "scale low high")
Separated = namedtuple("Separated", "g dg w m sw sm om br ow bm phi reexcised even even_x")


def _declares(scale: float, low=lambda f, t: [], high=lambda f, t: []):
    def declare(method):
        method.off_blend = OffBlend(scale, low, high)
        return method
    return declare


@dataclass(frozen=True)
class ExcisedCoefficient:
    """``atilde = cut(s) omega^2 <xi>_k^2 + (1 - cut(s)) a``, ``s = t Phi <xi>_k``,
    with the module's :func:`cut`.

    Quacks like a family (same evaluation interface), so it can be re-excised;
    re-excision is the identity wherever ``s`` is outside the blend ``(1, 2)``.
    Where ``cut == 1`` every method selects the reference value with ``np.where``,
    so a raw coefficient undefined there (e.g. at t = 0) leaks no NaN.
    """

    family: CoefficientFamily
    pair: StructurePair
    k: float

    def parts(self, t, x, xi):
        """``(t, <xi>_k, Phi, omega, s, omega^2 <xi>_k^2)``, ``s = t Phi <xi>_k``: the parts every
        excision-derived symbol reads, each formed once per call."""
        t = np.asarray(t, dtype=float)
        br = bracket(xi, self.k)
        phi = np.asarray(self.pair.phi(x), dtype=float)
        om = np.asarray(self.pair.omega(x), dtype=float)
        return t, br, phi, om, t * phi * br, om ** 2 * br ** 2

    def _blend(self, t, x, xi, wrt=None):
        """``(parts, atilde, d atilde)`` from one :meth:`parts`, ``cut(s)`` and family ``a``,
        ``d`` along ``wrt`` (``"t"``, ``"x"`` or ``"xi"``; None for none) by the one rule

            ``d atilde = cut'(s) ds (ref - a) + cut(s) dref + (1 - cut(s)) da``,

        ``ref = omega^2 <xi>_k^2``, and ``d atilde = dref`` where ``cut(s) = 1``.  ``ds`` and
        ``dref`` are factors multiplied in each variable's own order; along t ``dref = 0``."""
        p = self.parts(t, x, xi)
        t, br, phi, om, s, ref = p
        c = cut(s)
        with np.errstate(all="ignore"):
            a = self.family.a(t, x, xi)
            atilde = np.where(c >= 1.0, ref, c * ref + (1.0 - c) * a)
            if wrt is None:
                return p, atilde, None
            if wrt == "t":
                ds, dref = (phi, br), ()
            elif wrt == "x":
                ds = (t, np.asarray(self.pair.dphi(x), dtype=float), br)
                dref = (2.0 * om * np.asarray(self.pair.domega(x), dtype=float) * br ** 2,)
            else:
                xi = np.asarray(xi, dtype=float)
                ds, dref = (t, phi, xi / br), (om ** 2, 2.0, xi)
            d = reduce(mul, ds, dcut(s)) * (ref - a)
            if dref:
                d = d + reduce(mul, dref, c)
            d = d + (1.0 - c) * getattr(self.family, f"d{wrt}_a")(t, x, xi)
            return p, atilde, np.where(c >= 1.0, reduce(mul, dref) if dref else 0.0, d)

    @_declares(1.0, low=lambda f, t: [(f.om ** 2, f.br ** 2)],
               high=lambda f, t: [(f.w, f.g(t) * f.m)])
    def a(self, t, x, xi):
        return self._blend(t, x, xi)[1]

    def dt_a(self, t, x, xi):
        return self._blend(t, x, xi, "t")[2]

    def dx_a(self, t, x, xi):
        return self._blend(t, x, xi, "x")[2]

    def dxi_a(self, t, x, xi):
        return self._blend(t, x, xi, "xi")[2]

    @_declares(1.0, low=lambda f, t: [] if f.reexcised else [(f.w, f.g(t) * f.m),
                                                              (f.om ** 2, -f.br ** 2)])
    def defect(self, t, x, xi):
        """``a - atilde = cut(s) * (a - omega^2 <xi>_k^2)``; vanishes for s >= 2.

        Requires t > 0 when the raw coefficient is undefined at 0.
        """
        t, br, phi, om, s, ref = self.parts(t, x, xi)
        return cut(s) * (self.family.a(t, x, xi) - ref)

    # family duck-typing
    T = property(lambda self: self.family.T)
    spectral_shift = property(lambda self: self.family.spectral_shift)


def excise(family) -> ExcisedCoefficient:
    """Excise the principal symbol with the family's pair and shift ``k``."""
    return ExcisedCoefficient(family=family, pair=family.pair, k=family.k)


class EllipticityError(ValueError):
    """Raised when the excised symbol violates its ellipticity floor; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _guarded_div(num, den, where):
    """``num / den`` where ``where`` holds and 0 elsewhere, on the broadcast shape."""
    out = np.zeros(np.broadcast(num, den).shape)
    np.divide(num, den, out=out, where=where)
    return out


@dataclass(frozen=True)
class CharacteristicRoot:
    """``tau = sqrt(atilde)``, with closed-form first derivatives by the chain rule."""

    excised: ExcisedCoefficient
    floor: float  # fitted c with atilde >= c * omega^2 * ref(xi) on the lattice

    @_declares(1.0, low=lambda f, t: [(f.om, f.br)],
               high=lambda f, t: [(f.sw, np.sqrt(f.g(t)) * f.sm)])
    def value(self, t, x, xi):
        return np.sqrt(self.excised.a(t, x, xi))

    def _tau(self, t, x, xi, wrt=None):
        """``(parts, tau, d tau)`` of one :meth:`ExcisedCoefficient._blend` along ``wrt``:
        ``d tau = d atilde / (2 tau)``, 0 where ``tau = 0``."""
        p, atilde, da = self.excised._blend(t, x, xi, wrt)
        tau = np.sqrt(atilde)
        return p, tau, None if da is None else _guarded_div(da, 2.0 * tau, tau > 0.0)

    @_declares(1.0, high=lambda f, t: [(f.sw, f.dg(t) / (2.0 * np.sqrt(f.g(t))) * f.sm)])
    def dt(self, t, x, xi):
        return self._tau(t, x, xi, "t")[2]

    def dx(self, t, x, xi):
        return self._tau(t, x, xi, "x")[2]

    def dxi(self, t, x, xi):
        return self._tau(t, x, xi, "xi")[2]


def char_root(excised: ExcisedCoefficient) -> CharacteristicRoot:
    """Validate ellipticity of ``atilde`` on a sample lattice and return the root.

    The reference is ``omega^2 <xi>_k^2`` for shifted families and
    ``omega^2 xi^2`` for homogeneous ones (whose symbols legitimately vanish at
    ``xi = 0``; those samples are excluded).  A non-positive or non-finite
    fitted floor raises :class:`EllipticityError` with the witnessing sample.
    """
    lattice = SampleLattice(
        t=np.concatenate([[0.0], np.geomspace(1e-6 * excised.T, excised.T, 31)]),
        x=np.concatenate([[0.0], np.geomspace(0.5, 64.0, 8), -np.geomspace(0.5, 64.0, 8)]),
        xi=np.concatenate([np.geomspace(0.5, 128.0, 9), -np.geomspace(0.5, 128.0, 9)]))
    tt, xx, ww = lattice.mesh()
    vals = excised.a(tt, xx, ww)
    om2 = np.asarray(excised.pair.omega(xx), dtype=float) ** 2
    ref = om2 * (bracket(ww, excised.k) ** 2 if excised.spectral_shift else ww ** 2)
    mask = np.broadcast_to(ref > 0, vals.shape)
    ratio = np.divide(vals, ref, out=np.full(vals.shape, np.inf), where=mask)
    i = int(np.argmin(ratio))
    floor = float(ratio.ravel()[i])
    if not np.isfinite(vals[mask]).all() or floor <= 0.0:
        witness = (*lattice.point(i), floor)
        raise EllipticityError(
            f"excised symbol violates ellipticity: atilde/ref = {floor:.3e} at "
            f"(t, x, xi) = {witness[:3]}", witness=witness)
    return CharacteristicRoot(excised=excised, floor=floor)


@dataclass(frozen=True)
class HSymbol:
    """``sigma(H) = -(i/2) omega <xi>_k (1 - cut(s/3)) / tau``, on the parts of the root's
    excision (:meth:`ExcisedCoefficient.parts`).

    Vanishes identically for ``t Phi <xi>_k <= 3``; bounded by ``1/(2 sqrt(c))``
    where ``c`` is the root's floor.  Where ``tau = 0`` (only the xi = 0 mode of
    homogeneous families, outside the theory's ellipticity frame) the symbol is
    set to 0.
    """

    root: CharacteristicRoot

    @_declares(3.0, high=lambda f, t: [(f.ow, -0.5j / np.sqrt(f.g(t)) * f.bm)])
    def value(self, t, x, xi):
        (_, br, _, om, s, _), tau, _ = self.root._tau(t, x, xi)
        mask = 1.0 - cut(s / 3.0)
        return -0.5j * _guarded_div(om * br * mask, tau, (tau > 0) & (mask > 0))

    @_declares(3.0, high=lambda f, t: [(f.ow, 0.25j * f.dg(t) / f.g(t) ** 1.5 * f.bm)])
    def dt(self, t, x, xi):
        (_, br, phi, om, s, _), tau, dtau = self.root._tau(t, x, xi, "t")
        mask = 1.0 - cut(s / 3.0)
        dmask = -dcut(s / 3.0) * phi * br / 3.0
        num = om * br
        good = tau > 0
        return -0.5j * (_guarded_div(num * dmask, tau, good)
                        - _guarded_div(num * mask * dtau, tau * tau, good))


def h_symbol(root: CharacteristicRoot) -> HSymbol:
    """The H symbol of the root."""
    return HSymbol(root=root)


def off_blend(symbol, x, xi):
    """``(form, f)``: the ``OffBlend`` ``symbol``'s method declares (through ``__wrapped__``)
    and its excision's factors on ``x``, ``xi``: ``g``, ``g'``, ``w``, ``m``, their roots,
    ``omega``, ``<xi>_k``, ``omega / sqrt(w)``, ``<xi>_k / sqrt(m)`` (0 where the root is, as
    in HSymbol), ``Phi``, whether it re-excises, whether ``m(-xi) == m(xi)`` bitwise, and
    whether ``x`` holds its own negations with ``Phi``, ``omega`` and ``w`` bitwise even on it
    (:func:`~singhyp.quantize._even_x`).
    Re-excision (same pair and ``k``) is the identity off the blend, so the factors are the
    innermost family's.  None for an undeclared callable, no ``separable`` or ``dg``, or
    ``w`` or ``m`` < 0."""
    form = getattr(inspect.unwrap(getattr(symbol, "__func__", None)), "off_blend", None)
    if form is None:
        return None
    exc = getattr(getattr(symbol.__self__, "root", symbol.__self__), "excised", symbol.__self__)
    fam = exc.family
    while isinstance(fam, ExcisedCoefficient) and (fam.pair, fam.k) == (exc.pair, exc.k):
        fam = fam.family
    if not (getattr(fam, "dg", None) and getattr(fam, "separable", None)):
        return None
    (g, w, m), dg = fam.separable, fam.dg
    wx, mx = np.asarray(w(x), dtype=float), np.asarray(m(xi), dtype=float)
    if np.any(wx < 0.0) or np.any(mx < 0.0):
        return None
    om, br = np.asarray(exc.pair.omega(x), dtype=float), bracket(xi, exc.k)
    sw, sm = np.sqrt(wx), np.sqrt(mx)
    ow, bm = (np.divide(a, b, out=np.zeros_like(a), where=b > 0.0) for a, b in ((om, sw), (br, sm)))
    phi = np.asarray(exc.pair.phi(x), dtype=float)
    return form, Separated(g, dg, wx, mx, sw, sm, om, br, ow, bm, phi, fam is not exc.family,
                           np.array_equal(np.asarray(m(-xi), dtype=float), mx),
                           _even_x(x, phi, om, wx))


# --------------------------------------------------------------------------
# L1 defect quadrature
# --------------------------------------------------------------------------


class QuadratureError(RuntimeError):
    """Raised when the defect quadrature fails its refinement check."""


QUAD_EPS_RATIO = 1e-14  # bottom panel edge of TimeQuadrature, relative to t_hi
QUAD_NODES = 5  # Gauss-Legendre nodes per TimeQuadrature panel


@cache
def _gauss_rule():
    """The ``QUAD_NODES``-point Gauss-Legendre nodes and weights on ``[-1, 1]``, read-only.
    Built once, on first use rather than at import: importing ``numpy.polynomial`` adds
    about 1.7 MiB to every process, including those that never run a quadrature."""
    rule = np.polynomial.legendre.leggauss(QUAD_NODES)
    for a in rule:
        a.setflags(write=False)
    return rule


@dataclass(frozen=True)
class TimeQuadrature:
    """Composite ``QUAD_NODES``-point Gauss-Legendre rule on geometric panels of
    ``[QUAD_EPS_RATIO*t_hi, t_hi]``.

    Geometric grading resolves both the integrable ``t**-p`` singularity and the
    bounded oscillations ``sin(pi t**(1-q))`` whose phase diverges at 0; the
    mass below the bottom panel is O(QUAD_EPS_RATIO**(1-p)) relative.
    ``panels`` must be an integer >= 1 and ``rtol`` finite and > 0.
    """

    panels: int = 1024
    rtol: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.panels, (int, np.integer)) or self.panels < 1:
            raise ValueError(f"panels must be an integer >= 1, got {self.panels!r}")
        if not 0.0 < self.rtol < np.inf:
            raise ValueError(f"rtol must be finite and > 0, got {self.rtol!r}")

    def integrate(self, f: Callable, t_hi: float) -> float:
        v1 = self._run(f, t_hi, self.panels)
        v2 = self._run(f, t_hi, 2 * self.panels)
        if abs(v2 - v1) > self.rtol * max(abs(v1), abs(v2), 1e-300):
            raise QuadratureError(
                f"defect quadrature did not converge: {v1!r} vs {v2!r} at "
                f"{self.panels}/{2 * self.panels} panels")
        return v2

    def _run(self, f, t_hi, panels):
        nodes, weights = _gauss_rule()
        edges = QUAD_EPS_RATIO * t_hi * (1.0 / QUAD_EPS_RATIO) ** np.linspace(0.0, 1.0, panels + 1)
        lo, hi = edges[:-1], edges[1:]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        ts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = f(ts)
        return float(np.sum(half[:, None] * weights[None, :] * vals))


def l1_defect(family: CoefficientFamily, excised: ExcisedCoefficient, x: float, xi: float,
              quadrature: TimeQuadrature | None = None) -> float:
    """``int_0^T |a - atilde| dt`` at fixed ``(x, xi)``.

    The integrand is supported in ``t <= 2/(Phi(x) <xi>_k)`` exactly (the cutoff
    argument reaches 2 there), which is within the splitting-point bound
    ``(2/(Phi <xi>_k))**(1/(q-p))``.
    """
    quad = quadrature if quadrature is not None else TimeQuadrature()
    support = 2.0 / (float(np.asarray(excised.pair.phi(x))) * float(bracket(xi, excised.k)))
    t_hi = min(family.T, support)
    return quad.integrate(lambda ts: np.abs(excised.defect(ts, x, xi)), t_hi)


# --------------------------------------------------------------------------
# estimate fitting
# --------------------------------------------------------------------------


def fit_power_law(t, y):
    """Least-squares slope of ``log y`` against ``log t``; returns (slope, rms residual).

    Rejects non-positive samples; raises if fewer than two remain.
    """
    t = np.asarray(t, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    keep = (t > 0) & (y > 0) & np.isfinite(y)
    if np.count_nonzero(keep) < 2:
        raise ValueError("need at least two positive samples for a power-law fit")
    lt, ly = np.log(t[keep]), np.log(y[keep])
    A = np.vstack([lt, np.ones_like(lt)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - ly) ** 2)))
    return float(coef[0]), resid


def _phase_window_edges(b: float, n_windows: int, turns_per_window: float = 1.25,
                        theta_top: float = 12.0 * math.pi):
    """Window edges equidistributed in an oscillation phase ``theta ~ t**-b``.

    Each window covers ``turns_per_window`` full turns, so per-window maxima of
    ``|cos(theta)| * t**-e`` track the envelope regardless of where the cosine
    peaks fall; edges run from phase ``theta_top`` (largest t) upward.
    """
    thetas = theta_top + 2.0 * math.pi * turns_per_window * np.arange(n_windows + 1)
    return (thetas / math.pi) ** (-1.0 / b)  # decreasing in theta


def _windowed_envelope(fn, edges, per_window):
    """Per-window argmax points of |fn|; returns (t_at_max, maxima).

    Attributing the maximum to its own abscissa (not the window center) keeps
    the fitted points on the envelope curve, avoiding center-attribution bias
    when window widths vary.
    """
    edges = np.sort(np.asarray(edges, dtype=float))
    ts_at_max, maxima = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        ts = np.geomspace(a, b, per_window)
        vals = np.abs(fn(ts))
        i = int(np.argmax(vals))
        ts_at_max.append(float(ts[i]))
        maxima.append(float(vals[i]))
    return np.asarray(ts_at_max), np.asarray(maxima)


def fit_blowup_exponents(family: CoefficientFamily):
    """Fitted blow-up orders of ``sup_{x,xi} |a|/(omega^2 <xi>_k^2)`` and of the
    same ratio for ``dt a``: returns ``(p_fit, q_fit)``.

    Windowed-envelope fitting on 14 phase-equidistributed windows of 128 samples,
    with the sup over the probes ``(x, xi) = (0, k), (1, 4k)``: the oscillatory
    factor's cosine zeros make raw pointwise log-fits unbounded below, while
    per-window maxima track the envelope.  Without an oscillation, or with one so
    slow that those windows would reach below ``t = 1e-250``, the windows are
    geometric on ``[1e-8, 1e-2]``.
    """
    n_windows, per_window = 14, 128
    probes = [(0.0, family.k), (1.0, 4.0 * family.k)]
    b = family.osc_exponent
    if b is None and family.q > 1.0:
        b = family.q - 1.0
    edges = _phase_window_edges(b, n_windows) if b is not None and b > 0.0 else None
    if edges is None or edges[-1] < 1e-250:
        # b < 0.0067 (the windows may underflow to 0): over [1e-8, 1e-2] the phase then
        # turns by less than 0.1 pi, so |cos| stays near 1 and plain windows track the envelope
        edges = np.geomspace(1e-8, 1e-2, n_windows + 1)
    refs = [(xx, ww, np.asarray(family.pair.omega(xx), dtype=float) ** 2
             * bracket(ww, family.k) ** 2) for xx, ww in probes]

    def ratio(values_fn):
        return lambda ts: reduce(np.maximum, (np.abs(values_fn(ts, xx, ww)) / ref
                                              for xx, ww, ref in refs))

    return tuple(-fit_power_law(*_windowed_envelope(ratio(f), edges, per_window))[0]
                 for f in (family.a, family.dt_a))


@dataclass(frozen=True)
class SampleLattice:
    """Samples ``t``, ``x`` and ``xi`` of the lattice ``t x x x xi``."""

    t: np.ndarray
    x: np.ndarray
    xi: np.ndarray

    def mesh(self):
        """Open grids ``(tt, xx, ww)`` of shapes ``(nt, 1, 1)``, ``(1, nx, 1)`` and
        ``(1, 1, nxi)``: a factor of one variable is evaluated on that variable's
        samples only, and products broadcast to the full ``(nt, nx, nxi)`` lattice.
        Index a full-shape result with a mask only after ``np.broadcast_to``."""
        return np.meshgrid(self.t, self.x, self.xi, indexing="ij", sparse=True)

    def point(self, flat: int) -> tuple:
        """``(t, x, xi)`` at the flat index ``flat`` of a full ``(nt, nx, nxi)`` array."""
        it, ix, iw = np.unravel_index(flat, (self.t.size, self.x.size, self.xi.size))
        return float(self.t[it]), float(self.x[ix]), float(self.xi[iw])


def graded_lattice(T: float, *, nt: int = 32, nx: int = 33, nxi: int = 33) -> SampleLattice:
    """Geometric samples of t in [1e-5 T, T], |x| in [0.5, 100] and 0, |xi| in [0.5, 200]."""
    t = np.geomspace(1e-5 * T, T, nt)
    half = (nx - 1) // 2
    x = np.concatenate([[0.0], np.geomspace(0.5, 100.0, half), -np.geomspace(0.5, 100.0, half)])
    half_xi = nxi // 2
    xi = np.concatenate([np.geomspace(0.5, 200.0, half_xi), -np.geomspace(0.5, 200.0, half_xi)])
    return SampleLattice(t=np.sort(t), x=np.sort(x), xi=np.sort(xi))


@dataclass(frozen=True)
class FitEntry:
    zone: str
    alpha: int
    beta: int
    constant: float
    t_exponent: float
    residual: float
    n_samples: int
    witness: tuple | None = None


@dataclass(frozen=True)
class FitReport:
    entries: tuple
    meta: dict

    def entry(self, zone: str, alpha: int, beta: int) -> FitEntry:
        for e in self.entries:
            if (e.zone, e.alpha, e.beta) == (zone, alpha, beta):
                return e
        raise KeyError((zone, alpha, beta))

    def as_dict(self) -> dict:
        return {"meta": self.meta, "entries": [asdict(e) for e in self.entries]}


def _zone_masks(lattice: SampleLattice, profile, pair: StructurePair, k: float):
    tt, xx, ww = lattice.mesh()
    codes = classify_zone(tt, xx, ww, 1.0, profile, pair, k)
    s = tt * np.asarray(pair.phi(xx), dtype=float) * bracket(ww, k)
    return {
        "all": np.ones_like(s, dtype=bool),
        "interior": codes == int(Zone.INTERIOR),
        "exterior": codes == int(Zone.EXTERIOR),
        "excision_flat": (codes == int(Zone.INTERIOR)) & (s <= 1.0),
        "exterior_pure": (codes == int(Zone.EXTERIOR)) & (s >= 2.0),
    }


def symbol_class_report(derivatives: dict, m1: float, m2: float, profile,
                        pair: StructurePair, k: float, lattice: SampleLattice) -> FitReport:
    """Fit minimal class constants and time exponents on a lattice.

    ``derivatives`` maps each multi-index ``(alpha, beta)``, in the order fitted, to
    the callable ``(t, x, xi)`` evaluating ``d_xi^alpha D_x^beta a``, whose class
    envelope is ``<xi>_k^(m1 - alpha) omega^m2 Phi^(-beta)``.
    Per zone and multi-index, the fit is ``|deriv| <= C * envelope * t**-e``:
    ``e`` from a log-log least-squares slope, then ``C`` as the max of
    ``|deriv| * t**e / envelope`` over the zone's samples.  Unbounded fits are
    reported as ``inf`` with the witnessing sample.
    """
    tt, xx, ww = lattice.mesh()
    masks = _zone_masks(lattice, profile, pair, k)
    full = masks["all"].shape
    entries = []
    for (alpha, beta), fn in derivatives.items():
        vals = np.abs(np.asarray(fn(tt, xx, ww), dtype=complex))
        env = (bracket(ww, k) ** (m1 - alpha) * np.asarray(pair.omega(xx), dtype=float) ** m2
               * np.asarray(pair.phi(xx), dtype=float) ** -beta)
        ratio = np.broadcast_to(vals / env, full)
        for zone, mask in masks.items():
            n = int(np.count_nonzero(mask))
            if n < 2:
                entries.append(FitEntry(zone, alpha, beta, 0.0, 0.0, 0.0, n))
                continue
            rz = ratio[mask]
            tz = np.broadcast_to(tt, full)[mask]
            if not np.all(np.isfinite(rz)):
                i = int(np.argmax(~np.isfinite(rz)))
                entries.append(FitEntry(zone, alpha, beta, float("inf"), 0.0, 0.0, n,
                                        lattice.point(int(np.flatnonzero(mask)[i]))))
                continue
            pos = rz > 0
            if np.count_nonzero(pos) < max(2, n // 8):
                # essentially zero on this zone
                entries.append(FitEntry(zone, alpha, beta, float(np.max(rz, initial=0.0)),
                                        0.0, 0.0, n))
                continue
            slope, resid = fit_power_law(tz[pos], rz[pos])
            expo = max(-slope, 0.0)  # report blow-up exponents only
            c = float(np.max(rz * tz ** expo))
            entries.append(FitEntry(zone, alpha, beta, c, expo, resid, n))
    return FitReport(entries=tuple(entries), meta={
        "m1": m1, "m2": m2, "zone_constant": 1.0,
        "nt": lattice.t.size, "nx": lattice.x.size, "nxi": lattice.xi.size})


@dataclass(frozen=True)
class RootReport:
    """Root-specific estimate summary: interior/exterior time exponents of tau at
    order 0, and the maximum of |dt tau| (relative to omega <xi>_k) on the flat
    region where the excision forces it to vanish identically."""

    fit: FitReport
    interior_exponent: float
    exterior_exponent: float
    dt_tau_flat_max: float


def root_estimate_report(root: CharacteristicRoot, profile) -> RootReport:
    pair, k = root.excised.pair, root.excised.k
    lattice = graded_lattice(root.excised.T)

    fit = symbol_class_report({(0, 0): root.value, (0, 1): root.dx, (1, 0): root.dxi},
                              1.0, 1.0, profile, pair, k, lattice)
    tt, xx, ww = lattice.mesh()
    flat = _zone_masks(lattice, profile, pair, k)["excision_flat"]
    scale = np.asarray(pair.omega(xx), dtype=float) * bracket(ww, k)
    dt_vals = np.abs(root.dt(tt, xx, ww)) / scale
    dt_flat = float(np.max(np.broadcast_to(dt_vals, flat.shape)[flat], initial=0.0))
    return RootReport(fit=fit, interior_exponent=fit.entry("interior", 0, 0).t_exponent,
                      exterior_exponent=fit.entry("exterior_pure", 0, 0).t_exponent,
                      dt_tau_flat_max=dt_flat)
