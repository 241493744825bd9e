"""Network substrate: NICs, fabric, wire-level messages, hardware presets."""

from .fabric import Fabric
from .message import NetMsg
from .nic import Nic
from .params import FDR_IB, HDR_IB, TESTNET, NetworkParams

__all__ = ["Fabric", "NetMsg", "Nic", "NetworkParams",
           "HDR_IB", "FDR_IB", "TESTNET"]
