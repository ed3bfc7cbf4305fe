"""The kernel objects a session allocates by the dozen carry no ``__dict__``.

An attribute first assigned outside ``__init__`` (and so missing from
``__slots__``) raises ``AttributeError`` where it is assigned; without this
pin it would quietly bring the per-instance dict back.
"""

import weakref

import pytest

from repro.netsim.connection import Endpoint
from repro.netsim.simulator import Future, Simulator, SimTask


def _idle(task):
    yield from ()


_MAKE = {
    Future: Future,
    SimTask: lambda sim: sim.spawn(_idle),
    Endpoint: Endpoint,
}


@pytest.mark.parametrize("cls", list(_MAKE), ids=lambda cls: cls.__name__)
def test_instance_has_no_dict(cls):
    instance = _MAKE[cls](Simulator(seed="slots"))
    assert type(instance) is cls
    assert not hasattr(instance, "__dict__")
    with pytest.raises(AttributeError):
        instance.added_later = 1


def test_a_task_can_still_be_weakly_referenced():
    sim = Simulator(seed="slots")
    task = sim.spawn(_idle)
    assert weakref.ref(task)() is task
    sim.run()
    assert task.finished
