#!/usr/bin/env python3
"""Generate a TFHE keypair and save it with :mod:`repro.tfhe.serialize`.

The client-side half of the runtime's client/server story: generate a secret
key plus the matching cloud key and write both as versioned ``.tfhe``
artifacts the server can load (see ``examples/runtime_server.py``).

Run:  PYTHONPATH=src python tools/keygen.py --params test-small --out-dir keys/
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.tfhe.keys import generate_keys  # noqa: E402
from repro.tfhe.params import PARAMETER_SETS  # noqa: E402
from repro.tfhe.serialize import save  # noqa: E402
from repro.tfhe.transform import available_engines, make_transform  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--params",
        default="test-small",
        choices=sorted(PARAMETER_SETS),
        help="named TFHE parameter set (default: test-small)",
    )
    parser.add_argument(
        "--engine",
        default="double",
        choices=available_engines(),
        help="transform engine recorded in the cloud key (default: double)",
    )
    parser.add_argument(
        "--twiddle-bits",
        type=int,
        default=None,
        help="DVQTF bit-width (approx engine only)",
    )
    parser.add_argument(
        "--unroll",
        type=int,
        default=1,
        help="BKU unroll factor m (1 = classical blind rotation)",
    )
    parser.add_argument("--seed", type=int, default=None, help="deterministic RNG seed")
    parser.add_argument(
        "--out-dir",
        type=pathlib.Path,
        default=pathlib.Path("keys"),
        help="output directory (created if missing; default: keys/)",
    )
    parser.add_argument(
        "--prefix", default="client", help="file-name prefix (default: client)"
    )
    args = parser.parse_args(argv)

    params = PARAMETER_SETS[args.params]
    engine_kwargs = {}
    if args.twiddle_bits is not None:
        if args.engine != "approx":
            parser.error("--twiddle-bits only applies to the approx engine")
        engine_kwargs["twiddle_bits"] = args.twiddle_bits
    transform = make_transform(args.engine, params.N, **engine_kwargs)

    print(f"generating keys: {params.describe()}")
    print(f"engine={args.engine} unroll_factor={args.unroll} seed={args.seed}")
    # eager=False: this tool only serializes the coefficient-domain key; the
    # loading FheContext rebuilds the spectrum cache on the server.
    secret, cloud = generate_keys(
        params, transform, unroll_factor=args.unroll, rng=args.seed, eager=False
    )

    args.out_dir.mkdir(parents=True, exist_ok=True)
    secret_path = args.out_dir / f"{args.prefix}.secret.tfhe"
    cloud_path = args.out_dir / f"{args.prefix}.cloud.tfhe"
    save(secret_path, secret)
    save(cloud_path, cloud)
    for path in (secret_path, cloud_path):
        print(f"wrote {path} ({path.stat().st_size / 1024:.1f} KiB)")
    print("keep the .secret.tfhe private; ship only the .cloud.tfhe to the server")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
