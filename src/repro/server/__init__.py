"""NapletServer architecture (paper §2.2): the seven components plus wiring."""

from repro.server.admin import NapletStatus, ServerSummary, SpaceAdmin
from repro.server.bootstrap import deploy
from repro.server.directory import (
    DirectoryClient,
    DirectoryEvent,
    DirectoryMode,
    DirectoryRecord,
    NapletDirectory,
)
from repro.server.locator import Locator
from repro.server.mailbox import Mailbox
from repro.server.manager import NapletManager, Resident
from repro.server.messages import (
    DeliveryReceipt,
    SystemControl,
    SystemMessage,
    UserMessage,
)
from repro.server.messenger import Messenger, NapletMessengerProxy
from repro.server.monitor import (
    NapletMonitor,
    NapletOutcome,
    ResourceQuota,
    ResourceUsage,
)
from repro.server.navigator import Navigator, NavigatorOps
from repro.server.resource_manager import NapletServiceProxy, ResourceManager
from repro.server.security import (
    NapletSecurityManager,
    Permission,
    Rule,
    SecurityPolicy,
)
from repro.server.server import NapletServer, ServerConfig
from repro.server.service_channel import (
    EOF,
    NapletReader,
    NapletWriter,
    PrivilegedService,
    ServiceChannel,
    ServiceReader,
    ServiceWriter,
)

__all__ = [
    "NapletServer",
    "ServerConfig",
    "deploy",
    "SpaceAdmin",
    "NapletStatus",
    "ServerSummary",
    "NapletManager",
    "Resident",
    "Navigator",
    "NavigatorOps",
    "NapletMonitor",
    "NapletOutcome",
    "ResourceQuota",
    "ResourceUsage",
    "Messenger",
    "NapletMessengerProxy",
    "Mailbox",
    "UserMessage",
    "SystemMessage",
    "SystemControl",
    "DeliveryReceipt",
    "Locator",
    "NapletDirectory",
    "DirectoryClient",
    "DirectoryMode",
    "DirectoryEvent",
    "DirectoryRecord",
    "ResourceManager",
    "NapletServiceProxy",
    "ServiceChannel",
    "PrivilegedService",
    "EOF",
    "NapletReader",
    "NapletWriter",
    "ServiceReader",
    "ServiceWriter",
    "NapletSecurityManager",
    "SecurityPolicy",
    "Permission",
    "Rule",
]
