"""Write the golden CLI transcripts checked by ``tests/test_golden.py``.

Each case runs ``python -m ffsym.cli <argv>`` in a fresh process against the
``src/`` tree given by ``--src`` and stores its stdout byte for byte as
``<name>.json``; ``manifest.json`` records every case's argv and exit code.
Regenerate only from a commit whose outputs are the reference:

    python tests/golden/make_goldens.py --src src --out tests/golden

``selftest_seed42.json`` is the stdout of ``ffsym selftest --seed 42 --json``
from such a commit, and ``selftest_seed42.txt`` is its text output with each
line's trailing elapsed time `` (N.Ns)`` stripped.  They are not in the
manifest, because the selftest takes several seconds; CI compares both byte for
byte.  For the same reason
``reciprocity_sweep_7_3.json``, the stdout of
``ffsym reciprocity-sweep --q 7 --degree-max 3 --json`` (the largest sweep
under ``symbols.MAX_SWEEP_PAIRS``), stays out of the manifest and is
compared in CI, and so does ``reciprocity_sweep_7_3_n3.json``, the stdout of
``ffsym reciprocity-sweep --q 7 --degree-max 3 --n 3 --json`` (the same
sweep with cubic characters, about 0.5 s).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# The README CLI examples (selftest excluded; --json in place of --csv),
# then extension-field cases over F_9, F_25, F_243 and F_625 (every field up
# to gf.MAX_Q builds its log tables).
CASES = {
    "symbol": ["symbol", "--q", "3", "--alpha", "t", "--prime", "t+1", "--n", "2"],
    "local_symbol": ["local-symbol", "--q", "3", "--alpha", "2", "--beta", "1/t", "--place", "inf"],
    "hilbert": ["hilbert", "--q", "3", "--alpha", "t", "--beta", "t+1"],
    "reciprocity_sweep": ["reciprocity-sweep", "--q", "5", "--degree-max", "3"],
    "delta": ["delta", "--q", "3", "--a", "t", "--b", "t+1"],
    "member": ["member", "--q", "3", "--set", "Rtilde", "--x", "t^2/t+1", "--a", "t", "--b", "t+1"],
    "u_set": ["u-set", "--q", "13"],
    "witness": ["witness", "--q", "3", "--prime", "t^2+1"],
    "membership": ["membership", "--q", "3", "--target", "A", "--x", "t^3+2*t"],
    "ap_primes": ["ap-primes", "--q", "3", "--f", "t", "--c", "1", "--k", "2"],
    "uniformity": ["uniformity", "--q", "13", "--f", "t", "--k", "3"],
    "ext_reciprocity_sweep_3e2": ["reciprocity-sweep", "--q", "3^2", "--degree-max", "2"],
    "ext_hilbert_3e5": ["hilbert", "--q", "3^5", "--alpha", "[0,1]*t", "--beta", "t^2+[1,1]*t+1"],
    "ext_hilbert_5e4": ["hilbert", "--q", "5^4", "--alpha", "[0,1]*t^2+t",
                        "--beta", "t^2+[1,1]*t+[0,0,1]"],
    "ext_u_set_5e2": ["u-set", "--q", "5^2"],
    "ext_symbol_3e2_n4": ["symbol", "--q", "3^2", "--alpha", "t+[1,1]",
                          "--prime", "t^2+[0,1]*t+[1,1]", "--n", "4"],
    "ext_local_symbol_5e4": ["local-symbol", "--q", "5^4", "--alpha", "t^2+[0,1]",
                             "--beta", "t+[1,1]", "--place", "t+[1,1]"],
    "ext_delta_3e2": ["delta", "--q", "3^2", "--a", "[1,1]*t+[2,1]", "--b", "[1,1]*t^2+t+[2,0]"],
    "ext_witness_3e2": ["witness", "--q", "3^2", "--prime", "t+[0,1]"],
    "ext_membership_3e2": ["membership", "--q", "3^2", "--target", "AorAinf",
                           "--x", "t/t^2+[0,1]", "--samples", "4"],
    "ext_uniformity_3e2": ["uniformity", "--q", "3^2", "--f", "t+[0,1]", "--k", "3"],
    # per-class prime counts: non-cyclic unit group, characteristic 2,
    # a non-monic modulus
    "uniformity_3_t2": ["uniformity", "--q", "3", "--f", "t^2", "--k", "5"],
    "uniformity_5_t2p2": ["uniformity", "--q", "5", "--f", "t^2+2", "--k", "4"],
    "ext_uniformity_2e2": ["uniformity", "--q", "2^2", "--f", "t^2+t", "--k", "4"],
    "ap_primes_nonmonic": ["ap-primes", "--q", "3", "--f", "2*t^2+t", "--c", "t+1", "--k", "4"],
    # a degree-1 modulus over q > 256: every residue power is a constant power
    "uniformity_257_t": ["uniformity", "--q", "257", "--f", "t", "--k", "3"],
    # sweeps of higher symbol order, and the degree-0 edge case
    "reciprocity_sweep_5_n4": ["reciprocity-sweep", "--q", "5", "--degree-max", "2", "--n", "4"],
    "reciprocity_sweep_7_n3": ["reciprocity-sweep", "--q", "7", "--degree-max", "2", "--n", "3"],
    "reciprocity_sweep_13_n4": ["reciprocity-sweep", "--q", "13", "--degree-max", "1", "--n", "4"],
    "ext_reciprocity_sweep_3e2_n8": ["reciprocity-sweep", "--q", "3^2", "--degree-max", "2",
                                     "--n", "8"],
    "reciprocity_sweep_degree0": ["reciprocity-sweep", "--q", "5", "--degree-max", "0"],
    # characteristic 2: q - 1 odd, a cubic and a seventh-power character
    "ext_reciprocity_sweep_2e2_n3": ["reciprocity-sweep", "--q", "2^2", "--degree-max", "3",
                                     "--n", "3"],
    "ext_reciprocity_sweep_2e3_n7": ["reciprocity-sweep", "--q", "2^3", "--degree-max", "2",
                                     "--n", "7"],
    # fraction arguments: local symbols at places dividing a denominator
    "hilbert_fractions_7": ["hilbert", "--q", "7", "--alpha", "t^2+3/t^3+t+1",
                            "--beta", "3*t/t^2+1"],
    "ext_hilbert_fractions_17e2": ["hilbert", "--q", "17^2", "--alpha", "[0,1]*t+1/t^2+3",
                                   "--beta", "t^3+[1,1]/t+[0,2]"],
    "delta_fractions_13": ["delta", "--q", "13", "--a", "2*t^3+1/t^2+t+7", "--b", "t+5/t^4+2"],
    "local_symbol_fractions_257": ["local-symbol", "--q", "257", "--alpha", "3/t^3",
                                   "--beta", "t+1/t", "--place", "t"],
    # t^2 (t+1) and t^2 (t+4): both valuations are even at t, a place of the
    # joint support outside the odd support; Delta is {t+1, t+4}
    "hilbert_even_valuations_5": ["hilbert", "--q", "5", "--alpha", "t^3+t^2",
                                  "--beta", "t^3+4*t^2"],
    # the RNG stream where draws are rejected: 3-bit draws below 7 and 9-bit
    # draws below 257 in sample_d_pairs, the nonsquare residue of an
    # even-degree prime, and find_prime_in_ap's probes of degree 2
    "membership_7_t4": ["membership", "--q", "7", "--target", "A", "--x", "t^4+3*t+5"],
    "membership_257_t3": ["membership", "--q", "257", "--target", "A", "--x", "t^3+100*t+1",
                          "--samples", "8"],
    "witness_13_t2p2": ["witness", "--q", "13", "--prime", "t^2+2"],
    "ap_primes_257_k3": ["ap-primes", "--q", "257", "--f", "t+3", "--c", "5", "--k", "3"],
    # members integral at infinity over prime fields: every sampled pair of D
    # ramifies at infinity, so R~ accepts each of them there
    "membership_7_inf_fraction": ["membership", "--q", "7", "--target", "AorAinf",
                                  "--x", "t+1/t^2+3"],
    "membership_13_constant": ["membership", "--q", "13", "--target", "A", "--x", "5"],
    # the Frobenius walk on split and irreducible quadratics and on quartics,
    # above the sieve cap, over a prime field and an extension field
    "hilbert_257_quadratics": ["hilbert", "--q", "257", "--alpha", "t^2+3*t+2/t^2+3",
                               "--beta", "5*t^2+t+1/t^4+1"],
    "ext_delta_3e5_quadratics": ["delta", "--q", "3^5", "--a", "t^2+[1,1]*t+[2]/t^2+[0,1]",
                                 "--b", "[0,1]*t^2+1/t^3+t+1"],
    # Cantor-Zassenhaus through the p-power map over F_{3^5}: two quadratics
    # over three linears, against a cubic times two linears
    "ext_delta_3e5_split": ["delta", "--q", "3^5",
                            "--a", "t^4+[2,0,0,0,2]*t^3+[0,0,0,1,0]*t^2+[1,1,1,2,0]*t+[2,1,0,0,2]"
                                   "/t^3+[2,2,0,0,0]*t^2+[1,0,1,0,0]*t+[0,1,1,0,0]",
                            "--b", "t^5+[0,1,2,1,0]*t^4+[0,2,0,2,0]*t^3+[2,1,2,1,0]*t^2"
                                   "+[1,2,0,0,2]*t+[0,2,1,1,0]"],
    # CLI paths no other transcript reaches: the parity, I^c and local-square
    # member sets, an explicit --epsilon, and a prime power above the sieve
    # cap (3^9 > polyring.SIEVE_CAP), where factoring takes p-th roots
    "member_parity_5": ["member", "--q", "5", "--set", "parity", "--x", "t^2",
                        "--a", "t", "--b", "2*t+1"],
    "member_ic_5": ["member", "--q", "5", "--set", "Ic", "--x", "2", "--a", "t",
                    "--b", "2*t+1", "--c", "t"],
    "member_square_5": ["member", "--q", "5", "--set", "S", "--x", "t^2/t^2+1",
                        "--a", "t", "--b", "2"],
    "witness_5_epsilon": ["witness", "--q", "5", "--prime", "t+1", "--epsilon", "3"],
    "delta_3_pth_root": ["delta", "--q", "3", "--a", "t^9+1", "--b", "t"],
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="the src/ directory to run")
    ap.add_argument("--out", required=True, help="directory for the transcripts")
    args = ap.parse_args()
    out = Path(args.out)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    manifest = {}
    for name, argv in CASES.items():
        argv = argv + ["--json"]
        proc = subprocess.run([sys.executable, "-m", "ffsym.cli", *argv],
                              env=env, capture_output=True, check=False)
        (out / f"{name}.json").write_bytes(proc.stdout)
        manifest[name] = {"argv": argv, "exit": proc.returncode}
        print(f"{name}: exit {proc.returncode}")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
