"""TFHE parameter sets.

The paper evaluates the standard 110-bit-security TFHE parameters of the
reference library (Section 5): ring degree ``N = 1024``, TLWE dimension
``k = 1``, gadget base ``Bg = 1024`` with decomposition length ``l = 3`` and
LWE dimension ``n = 630``.  Bootstrapping a gate with those parameters in pure
Python takes seconds, so the test suite mostly uses reduced parameter sets
whose noise budgets are scaled to keep gates correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LweParams:
    """Parameters of the scalar (T)LWE encryption layer."""

    dimension: int
    noise_stddev: float

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("LWE dimension must be positive")
        if not 0 <= self.noise_stddev < 1:
            raise ValueError("noise stddev must lie in [0, 1)")


@dataclass(frozen=True)
class TlweParams:
    """Parameters of the ring (TRLWE) encryption layer."""

    degree: int
    mask_count: int
    noise_stddev: float

    def __post_init__(self) -> None:
        if self.degree <= 0 or self.degree & (self.degree - 1):
            raise ValueError("ring degree must be a power of two")
        if self.mask_count <= 0:
            raise ValueError("mask count k must be positive")
        if not 0 <= self.noise_stddev < 1:
            raise ValueError("noise stddev must lie in [0, 1)")


@dataclass(frozen=True)
class TgswParams:
    """Parameters of the TGSW (gadget) layer used for bootstrapping keys."""

    decomp_length: int
    decomp_base_bits: int

    def __post_init__(self) -> None:
        if self.decomp_length <= 0:
            raise ValueError("decomposition length l must be positive")
        if not 1 <= self.decomp_base_bits <= 31:
            raise ValueError("decomposition base bits must lie in [1, 31]")

    @property
    def base(self) -> int:
        """The gadget decomposition base ``Bg``."""
        return 1 << self.decomp_base_bits


@dataclass(frozen=True)
class KeySwitchParams:
    """Parameters of the LWE key-switching key."""

    base_bits: int
    length: int
    noise_stddev: float

    def __post_init__(self) -> None:
        if not 1 <= self.base_bits <= 31:
            raise ValueError("key-switch base bits must lie in [1, 31]")
        if self.length <= 0:
            raise ValueError("key-switch length must be positive")

    @property
    def base(self) -> int:
        return 1 << self.base_bits


@dataclass(frozen=True)
class DigitEncoding:
    """A multi-bit plaintext encoding for programmable bootstrapping.

    A digit carries ``message_bits`` of payload plus ``carry_bits`` of
    headroom for linear accumulation before the next bootstrapping; with the
    mandatory padding bit the encoding occupies ``2·2^(message_bits +
    carry_bits)`` evenly spaced torus slots, of which only the lower half
    (phases in ``[0, 1/2)``) ever holds a valid message.  The padding bit is
    what makes the negacyclic blind rotation implement an arbitrary lookup
    table instead of only sign extraction.
    """

    message_bits: int
    carry_bits: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.message_bits <= 4:
            raise ValueError("digit message width must lie in [1, 4] bits")
        if self.carry_bits < 0:
            raise ValueError("carry width must be non-negative")
        if self.message_bits + self.carry_bits > 6:
            raise ValueError("digit plaintext space is limited to 6 bits")

    @property
    def base(self) -> int:
        """The radix base ``B = 2^message_bits`` of one digit."""
        return 1 << self.message_bits

    @property
    def space(self) -> int:
        """The plaintext modulus ``P = 2^(message_bits + carry_bits)``."""
        return 1 << (self.message_bits + self.carry_bits)

    @property
    def torus_space(self) -> int:
        """Torus slot count ``2P`` including the padding bit."""
        return 2 * self.space

    def validate_for(self, params: "TFHEParameters") -> None:
        """Reject encodings the parameter set cannot carry.

        Structural fit: every plaintext slot must own a whole (non-empty) run
        of test-vector coefficients (``N % P == 0``) and the slot count must
        stay within the parameter set's rated ``message_space``.
        """
        if self.torus_space > params.message_space:
            raise ValueError(
                f"digit encoding needs {self.torus_space} torus slots but "
                f"{params.name!r} is rated for message_space="
                f"{params.message_space}"
            )
        if params.N % self.space:
            raise ValueError(
                f"plaintext modulus {self.space} does not divide the ring "
                f"degree {params.N}: test-vector slots would be fractional"
            )


@dataclass(frozen=True)
class TFHEParameters:
    """A complete TFHE gate-bootstrapping parameter set."""

    name: str
    security_bits: int
    lwe: LweParams
    tlwe: TlweParams
    tgsw: TgswParams
    keyswitch: KeySwitchParams
    #: Largest plaintext space (torus slot count, padding bit included) this
    #: parameter set's noise budget is rated for.  Gate bootstrapping uses the
    #: 8-ary space (messages at ±1/8); digit encodings occupy ``2P`` slots and
    #: are rejected when ``2P`` exceeds this rating (see
    #: :meth:`DigitEncoding.validate_for`).
    message_space: int = 8

    def __post_init__(self) -> None:
        space = self.message_space
        if space < 4 or space & (space - 1):
            raise ValueError("message_space must be a power of two >= 4")
        if space > 2 * self.tlwe.degree:
            raise ValueError(
                f"message_space {space} exceeds the {2 * self.tlwe.degree} "
                f"torus slots resolvable by ring degree {self.tlwe.degree}"
            )

    @property
    def n(self) -> int:
        """LWE dimension (the paper's ``n``)."""
        return self.lwe.dimension

    @property
    def N(self) -> int:  # noqa: N802 - matches the paper's notation
        """Ring polynomial degree (the paper's ``N``)."""
        return self.tlwe.degree

    @property
    def k(self) -> int:
        """TLWE mask count (the paper's ``k``)."""
        return self.tlwe.mask_count

    @property
    def l(self) -> int:
        """Gadget decomposition length (the paper's ``l``)."""
        return self.tgsw.decomp_length

    @property
    def Bg(self) -> int:  # noqa: N802 - matches the paper's notation
        """Gadget decomposition base (the paper's ``Bg``)."""
        return self.tgsw.base

    def describe(self) -> str:
        """One-line human readable summary of the parameter set."""
        return (
            f"{self.name}: n={self.n}, N={self.N}, k={self.k}, "
            f"Bg=2^{self.tgsw.decomp_base_bits}, l={self.l}, "
            f"ks=2^{self.keyswitch.base_bits}x{self.keyswitch.length}, "
            f"~{self.security_bits}-bit security"
        )


#: The paper's parameter set (Section 5): standard 110-bit security TFHE
#: parameters with N=1024, k=1, Bg=1024, l=3 and n=630.
PAPER_110BIT = TFHEParameters(
    name="paper-110bit",
    security_bits=110,
    lwe=LweParams(dimension=630, noise_stddev=2.44e-5),
    tlwe=TlweParams(degree=1024, mask_count=1, noise_stddev=3.73e-9),
    tgsw=TgswParams(decomp_length=3, decomp_base_bits=10),
    keyswitch=KeySwitchParams(base_bits=2, length=8, noise_stddev=2.44e-5),
    # Rated for gate bootstrapping only (8 torus slices): the paper evaluates
    # boolean circuits, and the mod-switch rounding noise of n=630 coefficients
    # eats too much of the narrower digit margins for a multi-bit rating here —
    # production radix stacks move to N=2048 rings for 2+2-bit digits.
    message_space=8,
)

#: Reduced parameters for the functional test-suite.  The ring and LWE
#: dimensions are shrunk aggressively and the noise is shrunk accordingly so
#: gate bootstrapping still decrypts correctly; there is **no** security claim.
TEST_SMALL = TFHEParameters(
    name="test-small",
    security_bits=0,
    lwe=LweParams(dimension=32, noise_stddev=2.0**-20),
    tlwe=TlweParams(degree=128, mask_count=1, noise_stddev=2.0**-28),
    tgsw=TgswParams(decomp_length=3, decomp_base_bits=8),
    keyswitch=KeySwitchParams(base_bits=4, length=5, noise_stddev=2.0**-20),
    # n=32 / N=128 leaves ~3.5σ of margin at P=8 (16 slots); P=16 would flake.
    message_space=16,
)

#: An even smaller set for property-based tests that bootstrap many times.
TEST_TINY = TFHEParameters(
    name="test-tiny",
    security_bits=0,
    lwe=LweParams(dimension=16, noise_stddev=2.0**-22),
    tlwe=TlweParams(degree=64, mask_count=1, noise_stddev=2.0**-30),
    tgsw=TgswParams(decomp_length=2, decomp_base_bits=10),
    keyswitch=KeySwitchParams(base_bits=5, length=4, noise_stddev=2.0**-22),
    # N=64 only resolves P=8 (16 slots) at ~5σ of mod-switch margin.
    message_space=16,
)

#: Mid-size parameters used by integration tests that want a realistic ring
#: degree without the cost of the full 110-bit LWE dimension.
TEST_MEDIUM = TFHEParameters(
    name="test-medium",
    security_bits=0,
    lwe=LweParams(dimension=64, noise_stddev=2.0**-20),
    tlwe=TlweParams(degree=512, mask_count=1, noise_stddev=2.0**-28),
    tgsw=TgswParams(decomp_length=3, decomp_base_bits=10),
    keyswitch=KeySwitchParams(base_bits=4, length=5, noise_stddev=2.0**-20),
    # n=64 / N=512 keeps ~10σ of margin at P=16 (32 slots).
    message_space=32,
)

#: A parameter set sized for programmable-bootstrapping tests: the LWE
#: dimension stays tiny (cheap blind rotations) while the ring degree is
#: large enough to resolve 4-bit digits.  sqrt(n/96)/N ≈ 0.0016 leaves ~5σ of
#: margin even at P=32 (64 slots).  No security claim.
TEST_PBS = TFHEParameters(
    name="test-pbs",
    security_bits=0,
    lwe=LweParams(dimension=16, noise_stddev=2.0**-22),
    tlwe=TlweParams(degree=256, mask_count=1, noise_stddev=2.0**-30),
    tgsw=TgswParams(decomp_length=2, decomp_base_bits=10),
    keyswitch=KeySwitchParams(base_bits=5, length=4, noise_stddev=2.0**-22),
    message_space=64,
)

PARAMETER_SETS = {
    params.name: params
    for params in (PAPER_110BIT, TEST_SMALL, TEST_TINY, TEST_MEDIUM, TEST_PBS)
}


def get_parameters(name: str) -> TFHEParameters:
    """Look up a named parameter set (raises ``KeyError`` for unknown names)."""
    return PARAMETER_SETS[name]
