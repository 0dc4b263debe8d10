"""MATCHA's contribution: approximate integer FFT, BKU and the accelerator.

* :mod:`repro.core.lifting` — dyadic-value quantisation and the
  multiplication-less lifting butterfly (Figure 3);
* :mod:`repro.core.twiddle` — twiddle-factor schedules, DVQTF quantisation and
  twiddle-buffer read accounting (Figure 2);
* :mod:`repro.core.conjugate_pair` — the depth-first conjugate-pair FFT
  (structural model, Figure 2);
* :mod:`repro.core.integer_fft` — the vectorised approximate
  multiplication-less integer negacyclic transform (Section 4.1);
* :mod:`repro.core.fft_error` — transform-error measurement in dB (Figure 8);
* :mod:`repro.core.bku` — bootstrapping-key unrolling for arbitrary ``m``
  (Section 4.2, Figures 4–5);
* :mod:`repro.core.pipeline` — the TGSW-cluster / EP-core pipeline model
  (Figure 6);
* :mod:`repro.core.accelerator` — the functional MATCHA accelerator facade.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".lifting": ("DyadicCoefficient", "LiftingRotationArray"),
        ".integer_fft": ("ApproximateNegacyclicTransform",),
        ".bku": ("UnrolledBlindRotator",),
        ".accelerator": ("MatchaAccelerator", "MatchaConfig"),
    },
)
