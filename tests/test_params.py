"""Each parameter type owns the rules of its fields and names the field it
rejects; the command line only maps that name to a configuration key."""

import dataclasses

import numpy as np
import pytest

from kscontrol.control import AdmissibleSet, ControlField, CostWeights, TrackingTargets
from kscontrol.errors import InvalidValue, KSControlError
from kscontrol.forward import ModelParams, PicardSettings, TimeGrid
from kscontrol.mesh import Field2D, GridSpec, RegionMask, constant_field
from kscontrol.optimize import ArmijoSettings, ControlProblem, OptimizeOptions

VALID = {
    GridSpec: dict(Lx=1.0, Ly=1.0, nx=4, ny=4),
    TimeGrid: dict(T=1.0, nt=4),
    ModelParams: dict(kappa=1.0, r=1.0, mu=1.0),
    PicardSettings: {},
    CostWeights: {},
    ArmijoSettings: {},
    OptimizeOptions: {},
}
FLOAT_FIELDS = [(cls, f.name) for cls in VALID for f in dataclasses.fields(cls)
                if f.type == "float"]


def test_every_type_has_float_fields():
    assert {cls for cls, _name in FLOAT_FIELDS} == set(VALID)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_non_finite_float_field_is_rejected_by_name(cls, name, bad):
    cls(**VALID[cls])
    with pytest.raises(InvalidValue) as exc:
        cls(**{**VALID[cls], name: bad})
    assert exc.value.field == name
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, KSControlError)


def test_box_bounds_are_rejected_by_name():
    for kwargs, field in [(dict(f_min=-np.inf, f_max=1.0), "f_min"),
                          (dict(f_min=-1.0, f_max=np.inf), "f_max"),
                          (dict(f_min=2.0, f_max=1.0), "f_min")]:
        with pytest.raises(InvalidValue) as exc:
            AdmissibleSet("box", **kwargs)
        assert exc.value.field == field
    with pytest.raises(InvalidValue) as exc:
        AdmissibleSet(f_max=1.0)
    assert exc.value.field == "f_max"


def test_problem_checks_its_scheme_and_cg_tol():
    grid = GridSpec(1.0, 1.0, 4, 4)
    tg = TimeGrid(T=1.0, nt=2)
    region = RegionMask.everywhere(grid)
    field = constant_field(grid, 0.5)
    problem = ControlProblem(
        u0=field, v0=field, targets=TrackingTargets(field, field),
        params=ModelParams(kappa=1.0, r=1.0, mu=1.0), weights=CostWeights(),
        admissible=AdmissibleSet(), region=region, time_grid=tg,
        f0=ControlField.zeros(tg, region))
    for name, bad in [("scheme", "quick"), ("cg_tol", 0.0), ("cg_tol", np.nan)]:
        with pytest.raises(InvalidValue) as exc:
            dataclasses.replace(problem, **{name: bad})
        assert exc.value.field == name


def test_field_names_its_values():
    grid = GridSpec(1.0, 1.0, 4, 4)
    with pytest.raises(InvalidValue, match="3x4 field does not match the 4x4 grid") as exc:
        Field2D(grid, np.zeros((3, 4)))
    assert exc.value.field == "values"
    with pytest.raises(InvalidValue, match="non-finite") as exc:
        Field2D(grid, np.full((4, 4), np.inf))
    assert exc.value.field == "values"
