"""The byte-identity contract of ``qsodyn verify --suite all --seed 7``.

The digest is that of the stdout at the commit that introduced the
benchmark (6049 bytes, 68 checks, ``68/68 passed``).  A change that alters
this output must say so and update the digest with it.
"""

from __future__ import annotations

import hashlib

VERIFY_ARGV = ["verify", "--suite", "all", "--seed", "7"]
VERIFY_SHA256 = "612c644a9aec2d21d2c1e7aacde9b12a28216d362a0713bf299de26ed7eea448"
VERIFY_CHECKS = 68


def verify_failures(exit_code: int, stdout: bytes) -> list[str]:
    """One message per check not reported as PASS; a digest mismatch is at least one."""
    lines = stdout.decode(errors="replace").splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    failures = [line for line in lines if line.startswith("FAIL ")]
    missing = VERIFY_CHECKS - passed - len(failures)
    failures += [f"verify exited {exit_code}; check {VERIFY_CHECKS - k} of {VERIFY_CHECKS} "
                 "not reported" for k in range(missing)]
    if not failures and (exit_code != 0 or hashlib.sha256(stdout).hexdigest() != VERIFY_SHA256):
        failures.append(f"verify exited {exit_code}; stdout differs from the golden digest")
    return failures
