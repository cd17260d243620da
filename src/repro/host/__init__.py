"""Host-side models: the CPU baseline, the host memory controller, and
end-to-end system compositions (host-only vs. ENMC-offloaded)."""

from repro.host.cpu import CPUModel, XEON_8280
from repro.host.memctrl import HostMemoryController
from repro.host.system import ENMCSystem, HostOnlySystem, SystemResult

__all__ = [
    "CPUModel",
    "XEON_8280",
    "HostMemoryController",
    "HostOnlySystem",
    "ENMCSystem",
    "SystemResult",
]
