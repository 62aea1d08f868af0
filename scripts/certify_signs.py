#!/usr/bin/env python3
"""Run the full one-period sign certification and the second-peak probe,
printing the certificate, margins, and probe verdict."""

import argparse
import time

from murmurations.signcheck import (PROBE_INTERVAL, SignCheckConfig,
                                    grid_verify, second_peak_probe,
                                    third_sign_change_fraction)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--S", type=int, default=SignCheckConfig.S)
    ap.add_argument("--skip-probe", action="store_true")
    args = ap.parse_args()

    cfg = SignCheckConfig(S=args.S)
    t0 = time.time()
    cert = grid_verify(cfg)
    print(f"grid: {cert.grid} points x {len(cert.verdicts)} offsets, "
          f"period {cert.period}  ({time.time() - t0:.0f}s)")
    print(f"error budget {cert.error_budget:.6f}, "
          f"inner tail {cert.inner_tail:.6f}")
    for v in cert.verdicts:
        print(f"  offset {v.offset}: sign {v.sign:+d}, worst margin "
              f"{v.worst_margin:.4f} at k={v.worst_k}: "
              f"{'pass' if v.passed else 'FAIL'}")
    print("certificate:", "PASS" if cert.passed else "FAIL")

    if not args.skip_probe:
        t0 = time.time()
        probe = second_peak_probe()
        print(f"second peak on {PROBE_INTERVAL}: max {probe.max_value:+.4f} "
              f"at T={probe.argmax:.3f}, truncation error "
              f"{probe.error_bound:.4f}  ({time.time() - t0:.0f}s)")
        print("no extra sign change certified:" ,
              "yes" if probe.certified_negative else "no")
        frac = third_sign_change_fraction(cfg)
        print(f"observed fraction of unit intervals whose second half "
              f"clears the budget (uncertified probe): {frac:.3f}")


if __name__ == "__main__":
    main()
