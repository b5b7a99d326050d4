"""repro — a Python reproduction of the Naplet mobile agent framework.

    Naplet: A Flexible Mobile Agent Framework for Network-Centric
    Applications.  Cheng-Zhong Xu, IPPS/IPDPS 2002.

Public surface (see README.md for the tour):

- :mod:`repro.core`         — the Naplet agent programming model
- :mod:`repro.itinerary`    — structured itineraries (seq/alt/par algebra)
- :mod:`repro.server`       — the NapletServer architecture (7 components)
- :mod:`repro.transport`    — frames, in-memory + TCP transports, serializer
- :mod:`repro.codeshipping` — codebases and lazy class loading
- :mod:`repro.faults`       — fault injection, retry policies, dead letters
- :mod:`repro.simnet`       — virtual networks, topologies, virtual time
- :mod:`repro.snmp`         — simulated SNMP/MIB substrate (paper §6)
- :mod:`repro.man`          — mobile-agent network management application
- :mod:`repro.hpc`          — distributed-computation workloads
"""

from repro.core import (
    AddressBook,
    Credential,
    Naplet,
    NapletError,
    NapletID,
    NapletListener,
    NapletState,
    SigningAuthority,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.itinerary import Itinerary, JoinPolicy, alt, par, seq, singleton
from repro.server import (
    NapletServer,
    ResourceQuota,
    SecurityPolicy,
    ServerConfig,
    deploy,
)
from repro.simnet import VirtualNetwork

__version__ = "0.1.0"

__all__ = [
    "Naplet",
    "NapletID",
    "NapletState",
    "NapletListener",
    "AddressBook",
    "Credential",
    "SigningAuthority",
    "NapletError",
    "Itinerary",
    "JoinPolicy",
    "seq",
    "alt",
    "par",
    "singleton",
    "NapletServer",
    "ServerConfig",
    "SecurityPolicy",
    "ResourceQuota",
    "deploy",
    "VirtualNetwork",
    "FaultPlan",
    "RetryPolicy",
    "__version__",
]
