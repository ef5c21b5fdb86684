"""NIST P-256 (secp256r1) elliptic-curve arithmetic.

UpKit performs ECDSA signature verification over the secp256r1 curve with
SHA-256 digests (Sect. V of the paper).  This module implements the curve
group from scratch: affine points for the public API and Jacobian
coordinates internally for speed, since the pure-Python field inversions
dominate the cost otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = ["P256", "Point", "CurveError", "FixedWindowTable"]


class CurveError(ValueError):
    """Raised when a point is not on the curve or encoding is invalid."""


# secp256r1 domain parameters (SEC 2, version 2.0)
_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
_A = _P - 3
_B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
_N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
_GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
_GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5


@dataclass(frozen=True)
class Point:
    """Affine curve point; ``None`` coordinates encode the identity."""

    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def encode(self) -> bytes:
        """Uncompressed SEC1 encoding (0x04 || X || Y)."""
        if self.is_infinity:
            raise CurveError("cannot encode the point at infinity")
        return b"\x04" + self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")


INFINITY = Point(None, None)


class _P256:
    """The secp256r1 group: point validation, addition, scalar multiply."""

    p = _P
    a = _A
    b = _B
    n = _N
    key_bytes = 32

    @property
    def generator(self) -> Point:
        return Point(_GX, _GY)

    def contains(self, point: Point) -> bool:
        if point.is_infinity:
            return True
        x, y = point.x, point.y
        if not (0 <= x < _P and 0 <= y < _P):
            return False
        return (y * y - (x * x * x + _A * x + _B)) % _P == 0

    def decode(self, data: bytes) -> Point:
        """Parse an uncompressed SEC1 point and validate curve membership."""
        if len(data) != 65 or data[0] != 0x04:
            raise CurveError("expected 65-byte uncompressed SEC1 point")
        point = Point(
            int.from_bytes(data[1:33], "big"),
            int.from_bytes(data[33:65], "big"),
        )
        if not self.contains(point) or point.is_infinity:
            raise CurveError("point is not on secp256r1")
        return point

    # -- group law -------------------------------------------------------

    def add(self, lhs: Point, rhs: Point) -> Point:
        return self._to_affine(
            self._jacobian_add(self._to_jacobian(lhs), self._to_jacobian(rhs))
        )

    def multiply(self, k: int, point: Point) -> Point:
        """Scalar multiplication k*point (left-to-right double-and-add)."""
        if point.is_infinity or k % _N == 0:
            return INFINITY
        k %= _N
        result = (0, 0, 0)  # Jacobian identity (Z == 0)
        addend = self._to_jacobian(point)
        while k:
            if k & 1:
                result = self._jacobian_add(result, addend)
            addend = self._jacobian_double(addend)
            k >>= 1
        return self._to_affine(result)

    def multiply_base(self, k: int) -> Point:
        return self.multiply(k, self.generator)

    def double_multiply(self, u1: int, u2: int, point: Point) -> Point:
        """u1*G + u2*point — the hot operation of ECDSA verification.

        Uses Shamir's trick (interleaved double-and-add) so verification
        costs roughly one scalar multiplication instead of two.
        """
        u1 %= _N
        u2 %= _N
        jg = self._to_jacobian(self.generator)
        jp = self._to_jacobian(point)
        jsum = self._jacobian_add(jg, jp)
        result = (0, 0, 0)
        for bit in range(max(u1.bit_length(), u2.bit_length()) - 1, -1, -1):
            result = self._jacobian_double(result)
            b1 = (u1 >> bit) & 1
            b2 = (u2 >> bit) & 1
            if b1 and b2:
                result = self._jacobian_add(result, jsum)
            elif b1:
                result = self._jacobian_add(result, jg)
            elif b2:
                result = self._jacobian_add(result, jp)
        return self._to_affine(result)

    # -- Jacobian internals ---------------------------------------------

    @staticmethod
    def _to_jacobian(point: Point) -> Tuple[int, int, int]:
        if point.is_infinity:
            return (0, 0, 0)
        return (point.x, point.y, 1)

    @staticmethod
    def _to_affine(jac: Tuple[int, int, int]) -> Point:
        x, y, z = jac
        if z == 0:
            return INFINITY
        z_inv = pow(z, -1, _P)
        z_inv2 = (z_inv * z_inv) % _P
        return Point((x * z_inv2) % _P, (y * z_inv2 * z_inv) % _P)

    @staticmethod
    def _jacobian_double(jac: Tuple[int, int, int]) -> Tuple[int, int, int]:
        x, y, z = jac
        if z == 0 or y == 0:
            return (0, 0, 0)
        # dbl-2001-b formulas specialised for a = -3
        delta = (z * z) % _P
        gamma = (y * y) % _P
        beta = (x * gamma) % _P
        alpha = (3 * (x - delta) * (x + delta)) % _P
        x3 = (alpha * alpha - 8 * beta) % _P
        z3 = ((y + z) * (y + z) - gamma - delta) % _P
        y3 = (alpha * (4 * beta - x3) - 8 * gamma * gamma) % _P
        return (x3, y3, z3)

    def _jacobian_add(
        self, lhs: Tuple[int, int, int], rhs: Tuple[int, int, int]
    ) -> Tuple[int, int, int]:
        x1, y1, z1 = lhs
        x2, y2, z2 = rhs
        if z1 == 0:
            return rhs
        if z2 == 0:
            return lhs
        z1z1 = (z1 * z1) % _P
        z2z2 = (z2 * z2) % _P
        u1 = (x1 * z2z2) % _P
        u2 = (x2 * z1z1) % _P
        s1 = (y1 * z2 * z2z2) % _P
        s2 = (y2 * z1 * z1z1) % _P
        if u1 == u2:
            if s1 != s2:
                return (0, 0, 0)
            return self._jacobian_double(lhs)
        h = (u2 - u1) % _P
        i = (4 * h * h) % _P
        j = (h * i) % _P
        r = (2 * (s2 - s1)) % _P
        v = (u1 * i) % _P
        x3 = (r * r - j - 2 * v) % _P
        y3 = (r * (v - x3) - 2 * s1 * j) % _P
        z3 = (((z1 + z2) * (z1 + z2) - z1z1 - z2z2) * h) % _P
        return (x3, y3, z3)


P256 = _P256()


def _batch_inverse(values: Sequence[int]) -> List[int]:
    """Invert many non-zero field elements with one modular inversion.

    Montgomery's trick: invert the product of all values once, then
    peel each inverse off with two multiplications.
    """
    prefix: List[int] = []
    product = 1
    for value in values:
        prefix.append(product)
        product = (product * value) % _P
    inv = pow(product, -1, _P)
    inverses = [0] * len(prefix)
    for i in range(len(prefix) - 1, -1, -1):
        inverses[i] = (inv * prefix[i]) % _P
        inv = (inv * values[i]) % _P
    return inverses


def _batch_to_affine(
    jacs: Sequence[Tuple[int, int, int]]
) -> List[Tuple[int, int]]:
    """Normalise many (finite) Jacobian points with one field inversion."""
    inverses = _batch_inverse([z for _, _, z in jacs])
    affine: List[Tuple[int, int]] = []
    for (x, y, _), z_inv in zip(jacs, inverses):
        z_inv2 = (z_inv * z_inv) % _P
        affine.append(((x * z_inv2) % _P, (y * z_inv2 * z_inv) % _P))
    return affine


class FixedWindowTable:
    """Precomputed signed-window multiples of one curve point.

    Stores ``d * 64**i * P`` for every window ``i`` (0..42) and digit
    ``d`` (1..32) in *affine* form: 43 rows of 32 points, 1,376 in all.
    A scalar is recoded into signed 6-bit digits in [-31, 32]; a
    negative digit reads the row entry with ``y`` replaced by ``p - y``,
    so negation is free and k*P costs at most 43 mixed additions and
    zero doublings.  The 43rd window absorbs the carry out of the top
    digit of any scalar below n.

    Building costs about 260 Jacobian doublings (the window bases
    ``B = 64**i * P``), one inversion to normalise them, and then one
    digit column at a time across all 43 rows in affine coordinates —
    ``2m*B`` by doubling ``m*B``, ``(2m+1)*B`` as ``2m*B + B`` — with
    one inversion shared by each column: about 13 ms on a 2-core x86
    host (Python 3.11), against about 20 ms for the unsigned 4-bit
    table it replaced.  It pays off for points that are multiplied repeatedly
    (the base point, and the vendor / update-server public keys every
    device verifies against).
    """

    WINDOW_BITS = 6
    _WINDOWS = -(-257 // WINDOW_BITS)   # 256-bit scalars plus one carry bit
    _DIGITS = 1 << (WINDOW_BITS - 1)    # digit magnitudes 1..32

    def __init__(self, point: Point) -> None:
        if point.is_infinity:
            raise CurveError("cannot build a window table for infinity")
        self.point = point
        jac = P256._to_jacobian(point)
        bases = [jac]
        for _ in range(self._WINDOWS - 1):
            for _ in range(self.WINDOW_BITS):
                jac = P256._jacobian_double(jac)
            bases.append(jac)
        # rows[i][d-1] = d * 64**i * P in affine form
        rows = [[xy] for xy in _batch_to_affine(bases)]
        p = _P
        for d in range(2, self._DIGITS + 1):
            if d & 1:
                # d*B = (d-1)*B + B: the chord through two known points.
                pairs = [(row[d - 2], row[0]) for row in rows]
                inverses = _batch_inverse(
                    [(x2 - x1) % p for (x1, _), (x2, _) in pairs])
                for row, ((x1, y1), (x2, y2)), inv in zip(
                        rows, pairs, inverses):
                    lam = ((y2 - y1) * inv) % p
                    x3 = (lam * lam - x1 - x2) % p
                    row.append((x3, (lam * (x1 - x3) - y1) % p))
            else:
                # d*B = 2 * (d/2)*B: the tangent at a known point.
                halves = [row[(d >> 1) - 1] for row in rows]
                inverses = _batch_inverse([(2 * y) % p for _, y in halves])
                for row, (x1, y1), inv in zip(rows, halves, inverses):
                    lam = ((3 * x1 * x1 + _A) * inv) % p
                    x3 = (lam * lam - 2 * x1) % p
                    row.append((x3, (lam * (x1 - x3) - y1) % p))
        self._rows = [tuple(row) for row in rows]

    def _accumulate(self, acc: Tuple[int, int, int],
                    k: int) -> Tuple[int, int, int]:
        """acc + k * P for a Jacobian ``acc`` and ``0 <= k < n``.

        The signed-digit recoding and the mixed addition (madd-2004-hmv,
        z2 = 1: 8 multiplications and 3 squarings) are inlined into one
        loop over the rows.  The addition keeps both exceptional cases:
        an accumulator equal to the table entry doubles, one equal to
        its negation becomes the identity.
        """
        p = _P
        bits = self.WINDOW_BITS
        mask = (1 << bits) - 1
        half = self._DIGITS
        x1, y1, z1 = acc
        for row in self._rows:
            if not k:
                break
            digit = k & mask
            k >>= bits
            if not digit:
                continue
            if digit > half:
                k += 1
                x2, y2 = row[mask - digit]     # magnitude 2**bits - digit
                y2 = p - y2
            else:
                x2, y2 = row[digit - 1]
            if not z1:
                x1, y1, z1 = x2, y2, 1
                continue
            z1z1 = (z1 * z1) % p
            u2 = (x2 * z1z1) % p
            s2 = (y2 * z1z1 * z1) % p
            if x1 == u2:
                if y1 == s2:
                    x1, y1, z1 = P256._jacobian_double((x1, y1, z1))
                else:
                    x1 = y1 = z1 = 0
                continue
            h = u2 - x1
            hh = (h * h) % p
            hhh = (hh * h) % p
            v = (x1 * hh) % p
            r = s2 - y1
            x1 = (r * r - hhh - 2 * v) % p
            y1 = (r * (v - x1) - y1 * hhh) % p
            z1 = (z1 * h) % p
        return (x1, y1, z1)

    def multiply(self, k: int) -> Point:
        return P256._to_affine(self._accumulate((0, 0, 0), k % _N))

    def combined_multiply(self, u1: int, other: "FixedWindowTable",
                          u2: int) -> Point:
        """u1 * self.point + u2 * other.point — table-only ECDSA verify.

        Both walks share one Jacobian accumulator, so the sum costs no
        general addition and a single normalisation.
        """
        acc = self._accumulate((0, 0, 0), u1 % _N)
        return P256._to_affine(other._accumulate(acc, u2 % _N))
