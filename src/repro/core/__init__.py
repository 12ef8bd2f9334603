"""DataFlower core: the paper's primary contribution.

Public surface::

    from repro.core import DataFlowerConfig, DataFlowerSystem

    system = DataFlowerSystem(env, cluster, DataFlowerConfig())
    system.deploy(workflow, placement)
    done = system.submit(workflow.name, request)
"""

from .config import DataFlowerConfig
from .dataflow_graph import RequestDataPlane, USER_INPUT
from .dlu import DLU
from .engine import NodeEngine
from .fault import FailureInjector, InjectionLog
from .flu import FluInvocation
from .pipes import PipeRouter, PushOutcome, ReDoSignal
from .prewarm import PrewarmPolicy
from .scaling import ScalingDecision, evaluate, pressure
from .sink import EntryState, SinkEntry, WaitMatchMemory
from .system import DataFlowerSystem

__all__ = [
    "DLU",
    "DataFlowerConfig",
    "DataFlowerSystem",
    "EntryState",
    "FailureInjector",
    "FluInvocation",
    "InjectionLog",
    "NodeEngine",
    "PipeRouter",
    "PrewarmPolicy",
    "PushOutcome",
    "ReDoSignal",
    "RequestDataPlane",
    "ScalingDecision",
    "SinkEntry",
    "USER_INPUT",
    "WaitMatchMemory",
    "evaluate",
    "pressure",
]
