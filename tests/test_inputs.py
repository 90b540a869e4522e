"""Property sweeps of the Suita records and the capacity over annuli, and of
the ODE pair over delta.

``suita-check``, ``extended-suita-check``, ``capacity`` and
``squeeze-check`` (without its trend) run through ``main`` on
``annulus:r`` with ``r`` from the smallest normal float to 0.9, at points
from just outside the inner circle to ``1 - 1e-4``, for the weights
``none``, ``harmoniclog:alpha`` (``|alpha| <= 600``) and ``harmonicre:c``.
No error other than a ``BergreenError`` may reach the records, and a record
may fail only on a documented precondition: the capacity's value, which the
``capacity`` record prints, must be a normal float.  The Suita and squeeze
records gate logs and must pass everywhere.  ``ode-check`` runs on its
default grid at ``delta`` log-uniform in ``[1e-6, 1e6]`` and must pass
everywhere."""

import json
import math
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bergreen import errors
from bergreen.cli import main

_LOG_TINY = math.log(sys.float_info.min)
_LOG_EDGE = math.log(1.0 - 1e-4)

# the documented preconditions a record of these commands may fail on
_PRECONDITIONS = ("leaves the floating-point range",)


@st.composite
def _specs(draw):
    """``(r, points, weight)``: three points on the axes, where ``|z|`` is
    exact, their moduli log-uniform between ``r`` and ``1 - 1e-4`` or one
    ulp past ``r``."""
    r = max(sys.float_info.min, math.exp(draw(st.floats(_LOG_TINY, math.log(0.9)))))
    points = []
    for _ in range(3):
        t = draw(st.floats(0.0, 1.0))
        s = max(math.exp(math.log(r) + t * (_LOG_EDGE - math.log(r))), math.nextafter(r, 1.0))
        points.append(s * draw(st.sampled_from([1, 1j, -1, -1j])))
    weight = draw(
        st.one_of(
            st.just("none"),
            st.floats(-600.0, 600.0).map(lambda a: f"harmoniclog:{a!r}"),
            st.floats(-1000.0, 1000.0).map(lambda c: f"harmonicre:{c!r}"),
        )
    )
    return r, points, weight


def _records(tmp_path, command, argv):
    main([command, *argv, "--no-cache", f"--outdir={tmp_path}"])
    name = command.replace("-", "_")
    return json.loads((tmp_path / f"{name}_report.json").read_text())["records"]


def _check(record):
    """The record passes, or fails with a ``BergreenError`` that names a
    documented precondition (on ``capacity`` only)."""
    if record["passed"]:
        return
    error = record["inputs"].get("error", "")
    kind = getattr(errors, error.partition(":")[0], None)
    assert isinstance(kind, type) and issubclass(kind, errors.BergreenError), record
    assert record["command"] == "capacity", record
    assert any(p in error for p in _PRECONDITIONS), record


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(spec=_specs())
def test_every_annulus_point_gets_a_record(tmp_path, spec):
    r, points, weight = spec
    domain = f"--domain=annulus:{r!r}"
    zs = "--zs=" + ",".join(str(complex(z)) for z in points)
    records = _records(tmp_path, "suita-check", [domain, zs])
    records += _records(tmp_path, "extended-suita-check", [domain, f"--weight={weight}", zs])
    records += _records(tmp_path, "capacity", [domain, f"--z={complex(points[0])}"])
    ps = zs.replace("--zs=", "--ps=")
    records += _records(tmp_path, "squeeze-check", [domain, ps, "--no-trend"])
    assert len(records) == 10
    for record in records:
        _check(record)


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(log_deltas=st.lists(st.floats(math.log(1e-6), math.log(1e6)), min_size=5, max_size=5))
def test_every_delta_passes_ode_check(tmp_path, log_deltas):
    deltas = "--deltas=" + ",".join(repr(math.exp(x)) for x in log_deltas)
    records = _records(tmp_path, "ode-check", [deltas])
    assert len(records) == 5
    for record in records:
        assert record["passed"], record

