"""Error-hierarchy tests: one catchable base type at the API boundary,
and every error type pickles as itself."""

import inspect
import pickle

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.GraphError,
            errors.SynthesisError,
            errors.FloorplanError,
            errors.InfeasibleError,
            errors.SolverError,
            errors.CommunicationError,
            errors.PipeliningError,
            errors.SimulationError,
            errors.DeadlockError,
            errors.DeviceError,
            errors.TopologyError,
        ],
    )
    def test_all_derive_from_base(self, exc):
        assert issubclass(exc, errors.TapaCSError)

    def test_infeasible_is_a_floorplan_error(self):
        assert issubclass(errors.InfeasibleError, errors.FloorplanError)

    def test_deadlock_is_a_simulation_error(self):
        assert issubclass(errors.DeadlockError, errors.SimulationError)

    def test_one_catch_covers_the_flow(self):
        """A user's try/except TapaCSError must catch compile failures."""
        from repro import compile_design, paper_testbed
        from tests.conftest import build_chain

        with pytest.raises(errors.TapaCSError):
            compile_design(build_chain(12, lut=400_000), paper_testbed(1))


def _error_types(base: type = errors.TapaCSError) -> list[type]:
    """``base`` and every package error type derived from it."""
    found = [base] if base.__module__.startswith("repro.") else []
    for sub in base.__subclasses__():
        found.extend(_error_types(sub))
    return found


def _sample_arg(param: inspect.Parameter):
    # Annotations are strings here: "str", "float | None", "list[str] | None".
    kind = param.annotation.split("|")[0].split("[")[0].strip()
    name = f"<{param.name}>"
    return {"str": name, "float": 2.5, "int": 3, "list": [name]}[kind]


def _sample(cls: type) -> errors.TapaCSError:
    """An instance of ``cls`` with every constructor argument given."""
    if cls.__init__ is Exception.__init__:
        return cls("generic finding")
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return cls(*map(_sample_arg, params))


class TestPickling:
    """A worker process's error reaches the broker as itself."""

    def test_every_error_type_is_covered(self):
        assert len(_error_types()) >= 27

    @pytest.mark.parametrize(
        "cls", _error_types(), ids=lambda cls: cls.__name__
    )
    def test_round_trip_keeps_type_message_and_attributes(self, cls):
        exc = _sample(cls)
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is cls
        assert str(copy) == str(exc)
        assert copy.args == exc.args
        assert vars(copy) == vars(exc)
