"""Run the full realization pipeline for a small input group, save the
certificate, and re-verify it from the file alone.  Prints wall and CPU
seconds for both passes, the CPU seconds of the certificate write and of
its read, the certificate's size and SHA-256, the bytes the held
witnesses take, and the peak RSS of the process after the write and at the
end.

The default input C2 is the smallest nontrivial case and the one whose
numbers are pinned throughout the test suite: ambient order 32, 172 biset
orbits, wreath degree 7792.

    python3 scripts/certify_c2.py --out c2.cert.json
"""

import argparse
import hashlib
import resource
import time

from automizer.grouprep import InputGroupA
from automizer.realize import Certificate, run_pipeline, verify_certificate


def _peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", default="C2", help="input group name (default C2)")
    ap.add_argument("--out", default="c2.cert.json", help="certificate path")
    ap.add_argument("--skip-verify", action="store_true",
                    help="skip the independent re-verification pass")
    args = ap.parse_args()

    A = InputGroupA.from_name(args.group)
    print("input group %s of order %d, exponent %d" % (A.name, A.order, A.e))

    t0, c0 = time.perf_counter(), time.process_time()
    cert = run_pipeline(A)
    t_run, c_run = time.perf_counter() - t0, time.process_time() - c0
    # written in pieces, hashed as they go: no whole copy of the text is held
    c0 = time.process_time()
    digest, size = hashlib.sha256(), 0
    with open(args.out, "wb") as fh:
        for chunk in cert.json_chunks():
            fh.write(chunk)
            digest.update(chunk)
            size += len(chunk)
    c_write = time.process_time() - c0

    print("pipeline: %.3fs wall, %.3fs CPU" % (t_run, c_run))
    print("certificate write: %.2fs CPU" % c_write)
    print("ambient order %d, exponent %d, rank %d" % (
        cert.ambient["order"], cert.ambient["exponent"], cert.ambient["rank"]))
    print("fusion generators: %d" % len(cert.fusion_generators))
    if cert.biset.get("orbits") is not None:
        print("biset: %d orbits, multiplier %d, %d slots" % (
            cert.biset.get("orbit_count", len(cert.biset["orbits"])),
            cert.biset["m"], cert.biset["n"]))
    if cert.prime is not None:
        print("prime: %d" % cert.prime)
    for name, value in cert.flags.items():
        print("  %-22s %s" % (name, "ok" if value else "FAILED"))
    print("accepted: %s" % cert.accepted)
    print("certificate: %s (%d bytes, sha256 %s)"
          % (args.out, size, digest.hexdigest()))
    held = cert.embedding.get("witnesses", [])
    print("held witnesses: %d bytes" % sum(a.nbytes for w in held for a in (w.values, w.counts, w.top)))
    print("peak RSS after write: %.1f MB" % _peak_rss_mb())

    if not args.skip_verify:
        t0, c0 = time.perf_counter(), time.process_time()
        loaded = Certificate.load(args.out)
        print("certificate read: %.2fs CPU" % (time.process_time() - c0))
        ok, report = verify_certificate(loaded)
        t_ver, c_ver = time.perf_counter() - t0, time.process_time() - c0
        print("independent verification: %s in %.3fs wall, %.3fs CPU"
              % ("ok" if ok else "REJECTED", t_ver, c_ver))
        if not ok:
            print("  failed stage: %s; reason: %s" % (report.get("failed_stage"), report.get("reason")))
    print("peak RSS: %.1f MB" % _peak_rss_mb())
    if not args.skip_verify and not ok:
        return 1
    return 0 if cert.accepted else 1


if __name__ == "__main__":
    raise SystemExit(main())
