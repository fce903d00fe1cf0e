"""Problem documents from specs: the inverse of `pdmp_cdf.cli.parse_problem`, for round-trip tests."""

import numpy as np

from pdmp_cdf.model import ProblemSpec, ScalarField, VectorField


def serialize_problem(spec: ProblemSpec) -> dict:
    """Inverse of ``parse_problem`` for full problem documents."""
    def scalar(f: ScalarField) -> dict:
        if f.kind == "constant":
            return {"kind": "constant", "value": f.value}
        return {"kind": "tabulated", "values": np.asarray(f.values).tolist()}

    def vector(f: VectorField) -> dict:
        if f.kind == "constant":
            return {"kind": "constant", "vector": f.vector.tolist()}
        if f.kind == "control_offset":
            return {"kind": "control_offset", "offset": f.vector.tolist()}
        return {"kind": "tabulated", "values": np.asarray(f.values).tolist()}

    exit_doc: dict = {"kind": spec.exit_set.kind}
    if spec.exit_set.kind == "faces":
        exit_doc["faces"] = list(spec.exit_set.faces)
    if spec.exit_set.kind == "boxes":
        exit_doc["boxes"] = [[[lo, hi] for lo, hi in box] for box in spec.exit_set.boxes]
    if spec.controls.empty:
        controls: dict = {"kind": "none"}
    elif spec.controls.kind == "unit_circle":
        controls = {"kind": "unit_circle", "n_angles": spec.controls.n_angles}
    else:
        controls = {"kind": "list", "vectors": spec.controls.vectors.tolist()}
    if spec.fixed_rates:
        rates = {"kind": "fixed", "matrix": spec.rates.off_diagonal().tolist()}
    else:
        rates = {"kind": "bounds", "lower": spec.rates.lower.tolist(),
                 "upper": spec.rates.upper.tolist()}
    return {
        "name": spec.name,
        "dimension": spec.dim,
        "domain": {"lo": spec.lo.tolist(), "hi": spec.hi.tolist()},
        "exit": exit_doc,
        "modes": [
            {"dynamics": vector(m.dynamics), "cost": scalar(m.cost),
             "exit_cost": scalar(m.exit_cost)}
            for m in spec.modes
        ],
        "rates": rates,
        "controls": controls,
    }
