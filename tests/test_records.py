"""The contract of the package's value records, held for every record type:
immutable, equal and hashed alike by class and fields, built by position
or keyword with a TypeError for any other call, and printed as
``Name(field=value, ...)``, the format the metrics digests and the error
messages carry."""

import numpy as np
import pytest

from flexjoint import cli
from flexjoint.analysis import StabilityBounds
from flexjoint.control import (Controller, ControllerKind, GainSet, Reference,
                               simulate)
from flexjoint.fuzzy import FlrBounds, LinguisticScale, RuleBase
from flexjoint.gainsio import LoadedGains
from flexjoint.metrics import Metrics, compute_metrics
from flexjoint.plant import DisturbanceModel, PlantParams, SimConfig, State
from flexjoint.tuning import Domain, GpModel, TunerConfig, gp_fit, pd_gain_domain


def _gp_model_fields() -> dict:
    X = np.random.default_rng(0).uniform(0.0, 30.0, (5, 4))
    m = gp_fit(X, -np.arange(5.0), pd_gain_domain(), 0)
    return {name: getattr(m, name) for name in
            ("domain", "Xn", "theta", "y_mean", "y_std", "alpha", "chol")}


# (class, the fields of a valid record in order, whether any field is
# required); the field values are built once, so records share them
RECORDS = [
    (PlantParams, dict(m=1.0, g=9.0, l=0.5, I_l=2.0, I_m=0.4, k=80.0, mu=0.2),
     False),
    (State, dict(x1=0.5, x2=-1.25, x3=1e-300, x4=3.0), True),
    (DisturbanceModel, dict(kind="uniform", amplitude=2.5, seed=7,
                            hold="per-control-step"), False),
    (SimConfig, dict(sim_dt=0.01, control_dt=0.1, horizon=2.0), False),
    (GainSet, dict(kp1=50.0, kd1=9.0, kp2=140.0, kd2=8.0), False),
    (Reference, dict(kind="constant", value=0.25), False),
    (Controller, dict(kind=ControllerKind.PD1_FUZZY2,
                      gains=GainSet(1.0, 2.0, 3.0, 4.0), flr_bounds=FlrBounds(),
                      single_gains=(100.0, 20.0)), False),
    (LinguisticScale, dict(lo=-2.0, hi=3.0), True),
    (RuleBase, dict(kp_bounds=(-1.0, 2.0), kd_bounds=(0.0, 0.5)), True),
    (FlrBounds, dict(dkp1=(0.0, 1.0), dkd1=(-1.0, 0.0), dkp2=(-2.0, 2.0),
                     dkd2=(0.5, 0.5)), False),
    (Metrics, dict(cost=-5.5, overshoot_pct=1.25, settling_time=0.75,
                   steady_state_error=1e-3, rms_error=0.3), True),
    (LoadedGains, dict(gains=GainSet(), bounds=FlrBounds(),
                       repaired_pairs=("dkp1",)), True),
    (StabilityBounds, dict(L11=0.1, L12=0.2, L21=0.3, L22=0.4), False),
    (Domain, dict(names=("a", "b"), lo=(0.0, -1.0), hi=(1.0, 1.0)), True),
    (TunerConfig, dict(T=20, n_init=5, h=1.5, seed=3), False),
    (GpModel, _gp_model_fields(), True),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls,fields,required", RECORDS, ids=IDS)
def test_records_are_immutable(cls, fields, required):
    r = cls(**fields)
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(r, name)


@pytest.mark.parametrize("cls,fields,required", RECORDS, ids=IDS)
def test_records_with_equal_fields_are_equal(cls, fields, required):
    a, b = cls(*fields.values()), cls(**fields)
    assert a == b and not a != b
    assert a != tuple(fields.values()) and a != object()
    if cls is GpModel:   # its arrays are unhashable, as a tuple of them is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_records_of_other_classes_or_fields_differ():
    assert GainSet(0.0, 0.0, 0.0, 0.0) != StabilityBounds(0.0, 0.0, 0.0, 0.0)
    assert StabilityBounds(0.0, 0.0, 0.0, 0.0) != GainSet(0.0, 0.0, 0.0, 0.0)
    assert GainSet(1.0, 0.0, 0.0, 0.0) != GainSet(0.0, 0.0, 0.0, 0.0)
    assert Controller() == Controller()   # the regulators it builds do not count
    assert hash(Controller()) == hash(Controller())
    assert Controller(gains=GainSet(1.0, 2.0, 3.0, 4.0)) != Controller()


@pytest.mark.parametrize("cls,fields,required", RECORDS, ids=IDS)
def test_records_reject_bad_arguments(cls, fields, required):
    values = list(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(*values, values[0])                        # surplus
    with pytest.raises(TypeError):
        cls(**fields, not_a_field=1.0)                 # unknown
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})             # duplicate
    if required:
        with pytest.raises(TypeError):
            cls()                                      # missing


def _metrics() -> Metrics:
    ref = Reference()
    return compute_metrics(simulate(PlantParams(), SimConfig(horizon=2.0),
                                    Controller(), ref, DisturbanceModel()), ref)


@pytest.mark.parametrize("record,text", [
    (PlantParams(), "PlantParams(m=1.2756, g=9.8, l=0.4, I_l=1.0, I_m=0.3, "
                    "k=100.0, mu=0.1)"),
    (SimConfig(), "SimConfig(sim_dt=0.005, control_dt=0.05, horizon=10.0)"),
    (DisturbanceModel(), "DisturbanceModel(kind='off', amplitude=10.0, seed=0, "
                         "hold='per-sim-step')"),
    (GainSet(), "GainSet(kp1=52.19, kd1=10.18, kp2=144.5, kd2=8.636)"),
    (cli.TUNED_FLR_BOUNDS, "FlrBounds(dkp1=(-11.61, 15.27), dkd1=(-3.228, 0.1), "
                           "dkp2=(-16.94, 2.997), dkd2=(-0.1, 0.9537))"),
    (State(0.5, -1.25, 1e-300, 3.0), "State(x1=0.5, x2=-1.25, x3=1e-300, x4=3.0)"),
    (_metrics(), "Metrics(cost=-5.275433149503959, overshoot_pct=8.3062379330201e-05, "
                 "settling_time=0.75, steady_state_error=0.0003458916109971621, "
                 "rms_error=0.30488351978364503)"),
], ids=["PlantParams", "SimConfig", "DisturbanceModel", "GainSet",
        "TUNED_FLR_BOUNDS", "State", "Metrics"])
def test_record_repr(record, text):
    assert repr(record) == text
