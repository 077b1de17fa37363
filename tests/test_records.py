"""The package's records: one shared implementation, the dataclass behaviour.

Every dataclass in ``src/stablecouple`` goes through ``records.record``,
so importing the package compiles no generated method, and each record
keeps the construction, defaults, validation, immutability, equality,
hash and repr that ``@dataclass`` gave it.
"""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stablecouple
from stablecouple import records
from stablecouple.cli import ExperimentConfig
from stablecouple.coupling_engine import SchemeConfig
from stablecouple.drift_models import DriftCondition, DriftField
from stablecouple.lyapunov import ContractionCertificate


def _package_dataclasses():
    out = []
    for info in pkgutil.iter_modules(stablecouple.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"stablecouple.{info.name}")
        out += [obj for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__
                and "__dataclass_fields__" in vars(obj)]
    return sorted(out, key=lambda cls: cls.__qualname__)


RECORDS = _package_dataclasses()
FROZEN = [cls for cls in RECORDS if cls is not ExperimentConfig]
# fields that __post_init__ checks get valid numbers; the rest any value
_VALID = {DriftCondition: dict(k1=1.0, k2=2.0, l0=0.5, theta=3.0),
          SchemeConfig: dict(eps_couple=1e-5, delta_floor=0.1)}


def _sample(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    return _VALID.get(cls, {name: f"{cls.__name__}.{name}" for name in names})


def _ids(classes):
    return [cls.__name__ for cls in classes]


def test_import_compiles_no_generated_code():
    # a fresh interpreter, so the package is imported here for the first
    # time; numpy is imported before counting, so only the package counts
    env = dict(os.environ)
    src = str(Path(records.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import builtins\n"
            "import numpy\n"
            "calls = []\n"
            "real = builtins.exec\n"
            "def counted(source, *args, **kwargs):\n"
            "    if isinstance(source, str):\n"
            "        calls.append(source)\n"
            "    return real(source, *args, **kwargs)\n"
            "builtins.exec = counted\n"
            "import stablecouple.cli\n"
            "builtins.exec = real\n"
            "print(len(calls))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def test_every_package_dataclass_is_a_record():
    assert len(RECORDS) == 14
    for cls in RECORDS:
        params = cls.__dataclass_params__
        assert not (params.init or params.repr or params.eq), cls
        assert cls.__init__ is records._init, cls
        assert cls.__repr__ is records._repr and cls.__eq__ is records._eq, cls
        # a docstring of its own, not one dataclass builds from the signature
        assert "*args" not in cls.__doc__, cls


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_record_constructs_by_position_and_by_keyword(cls):
    sample = _sample(cls)
    by_name = cls(**sample)
    by_position = cls(*sample.values())
    half = len(sample) // 2
    mixed = cls(*list(sample.values())[:half], **dict(list(sample.items())[half:]))
    for obj in (by_name, by_position, mixed):
        assert {name: getattr(obj, name) for name in sample} == sample
    assert by_name == by_position == mixed
    assert dataclasses.replace(by_name) == by_name


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_record_rejects_a_bad_call(cls):
    sample = _sample(cls)
    first = next(iter(sample))
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**sample, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(sample[first], **sample)
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*sample.values(), 1)
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    if required:
        with pytest.raises(TypeError, match=f"missing {len(required)} required"):
            cls()
        with pytest.raises(TypeError, match=repr(required[-1])):
            cls(**{k: v for k, v in sample.items() if k != required[-1]})


def test_defaults_and_a_fresh_default_factory_value_per_instance():
    field = DriftField(evaluate=abs, d=1, label="abs")
    assert field.claimed_condition is None
    assert SchemeConfig() == SchemeConfig(1e-6, 2e-2)
    cfg = ExperimentConfig(d=2)
    assert cfg.d == 2
    assert all(getattr(cfg, f.name) == f.default
               for f in dataclasses.fields(cfg) if f.name != "d")
    constants = dict(lam=1.0, lambda1=2.0, lambda1_psi=3.0, lambda2=4.0, c_p=5.0,
                     c2_chain=6.0, p=1.0, prefactor=7.0, theta=2.0)
    one, two = ContractionCertificate(**constants), ContractionCertificate(**constants)
    assert one.t0 is None and one.inputs == {}
    assert one.inputs is not two.inputs
    given = {"k": 1}
    assert ContractionCertificate(**constants, inputs=given).inputs is given


def test_post_init_validates_on_construction_and_under_replace():
    cond = DriftCondition(**_VALID[DriftCondition])
    with pytest.raises(ValueError, match="k1"):
        DriftCondition(k1=-1.0, k2=1.0, l0=1.0, theta=2.0)
    with pytest.raises(ValueError, match="theta"):
        dataclasses.replace(cond, theta=1.0)
    assert dataclasses.replace(cond, l0=2.0).l0 == 2.0
    with pytest.raises(ValueError, match="eps_couple"):
        SchemeConfig(eps_couple=0.0)
    with pytest.raises(ValueError, match="delta_floor"):
        dataclasses.replace(SchemeConfig(), delta_floor=float("inf"))


@pytest.mark.parametrize("cls", FROZEN, ids=_ids(FROZEN))
def test_frozen_record_refuses_setting_and_deleting(cls):
    obj = cls(**_sample(cls))
    name = next(iter(_sample(cls)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 0
    assert getattr(obj, name) == _sample(cls)[name]


def test_experiment_config_stays_mutable_and_unhashable():
    cfg = ExperimentConfig()
    cfg.seed = 7
    cfg.out = "elsewhere"
    assert (cfg.seed, cfg.out) == (7, "elsewhere")
    assert cfg == ExperimentConfig(seed=7, out="elsewhere")
    with pytest.raises(TypeError, match="unhashable"):
        hash(cfg)


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_equality_hash_and_repr_follow_the_fields(cls):
    sample = _sample(cls)
    obj = cls(**sample)
    first = next(iter(sample))
    assert obj == cls(**sample)
    assert obj != dataclasses.replace(obj, **{first: 99.0})
    assert obj.__eq__(object()) is NotImplemented
    assert repr(obj) == (f"{cls.__qualname__}("
                         + ", ".join(f"{k}={v!r}" for k, v in sample.items()) + ")")
    if cls in FROZEN:
        assert hash(obj) == hash(tuple(sample.values()))


def test_radial_lyapunov_tail_const_is_cached(high_alpha_model):
    _, _, lyap = high_alpha_model
    value = lyap.tail_const
    assert vars(lyap)["tail_const"] is value
    assert lyap.tail_const is value
