#!/usr/bin/env python3
"""Calibrate the divergence threshold for the time-average (Cesaro) probe.

The Zakharevich operator is the classical example of divergent time
averages: its trajectories spiral toward the boundary, dwelling near each
vertex for geometrically growing spans, so the Cesaro means keep moving
between any two checkpoint scales.  In 64-bit floating point the spiral
additionally collapses onto the boundary once a coordinate underflows
(the minimum coordinate decays super-exponentially in loop count), after
which the orbit is absorbed near a vertex; the means then crawl toward that
vertex at rate 1/n, which still keeps the checkpoint-to-checkpoint
fluctuation orders of magnitude above anything a regular operator produces.

This script runs the probe once with an extra 10^7-step checkpoint (the
means at the standard checkpoints are the first ones of that run) and
freezes delta = (minimum pairwise sup-distance between the Cesaro means at
the standard checkpoints) / 2 into calibration/zakharevich_cesaro.json.
The verification suite asserts that every checkpoint pair differs by more
than delta while the symmetric mixing operator on m=5 keeps its overall
fluctuation below 1e-4 at the same checkpoints.

Run from the repository root:  python3 scripts/calibrate_nonergodicity.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qsodyn import make, make_regular, validate_point  # noqa: E402
from qsodyn.analysis import cesaro_distances, ergodicity_probe, sample_interior  # noqa: E402
from qsodyn.verification import CESARO_CHECKPOINTS, ERGODIC_CONTROL_SEED  # noqa: E402

import numpy as np  # noqa: E402

STANDARD_CHECKPOINTS = CESARO_CHECKPOINTS
CALIBRATION_CHECKPOINTS = [*CESARO_CHECKPOINTS, 10_000_000]
START = [0.3, 0.3, 0.4]


def main() -> None:
    t = make("ZAKHAREVICH")
    x0 = validate_point(START)
    report = ergodicity_probe(t, x0, CALIBRATION_CHECKPOINTS)

    # distances over the standard checkpoints only (what the suite asserts)
    standard = report.cesaro[:len(STANDARD_CHECKPOINTS)]
    pair_dists = cesaro_distances(np.array([p.coords for p in standard]))
    delta = min(pair_dists) / 2.0

    control = make_regular(5)
    rng = np.random.default_rng(ERGODIC_CONTROL_SEED)
    c0 = validate_point(sample_interior(rng, 5, 1)[0].tolist())
    control_report = ergodicity_probe(control, c0, STANDARD_CHECKPOINTS)

    out = {
        "operator": "ZAKHAREVICH",
        "start": START,
        "standard_checkpoints": STANDARD_CHECKPOINTS,
        "calibration_checkpoints": CALIBRATION_CHECKPOINTS,
        "cesaro_means": [list(p.coords) for p in report.cesaro],
        "min_coordinate_at_checkpoints": list(report.min_coordinate),
        "fluctuation_with_1e7": report.fluctuation,
        "fluctuation_standard": max(pair_dists),
        "pairwise_distances_standard": pair_dists,
        "delta": delta,
        "delta_rule": "half the minimum pairwise distance between the "
                      "standard-checkpoint Cesaro means",
        "control": {
            "operator": "REGULAR(m=5)",
            "seed": ERGODIC_CONTROL_SEED,
            "start": list(c0.coords),
            "fluctuation": control_report.fluctuation,
        },
        "note": (
            "min_coordinate 0.0 records the floating-point collapse onto the "
            "boundary; the divergence contrast with the regular control is "
            "what the acceptance check consumes"
        ),
    }
    dest = pathlib.Path(__file__).resolve().parent.parent / "calibration"
    dest.mkdir(exist_ok=True)
    path = dest / "zakharevich_cesaro.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}")
    print(f"delta = {delta!r}")
    print(f"zakharevich pairwise distances (standard) = {pair_dists!r}")
    print(f"regular m=5 control fluctuation           = {control_report.fluctuation!r}")


if __name__ == "__main__":
    main()
