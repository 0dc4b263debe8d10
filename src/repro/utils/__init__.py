"""Shared utilities: bit manipulation, deterministic RNG and text tables."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".bits": ("bit_length", "is_power_of_two", "signed_digit_expansion"),
        ".rng": ("make_rng",),
        ".tables": ("format_table",),
    },
)
