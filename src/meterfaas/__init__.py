"""Metered FaaS simulator: enclave execution contract, lower-bound timing,
attested key distribution, and verifiable billing, all deterministic."""

from .attest import AttestationRoot, EnclaveIdentity, Quote, derive_identity, verify_transitive
from .kde import KeyDistributionEnclave, KeySet, PublishedKeys
from .kernel import ScheduleEvent, SimKernel, SimTrace
from .metering import MeterConfig, SignedMeasurement, run_metered
from .orchestrator import (
    BillingPolicy,
    ClientContext,
    WorkerPool,
    client_prepare,
    client_verify_response,
    compute_invoice,
    provider_verify_measurement,
)
from .vm import CostTable, FunctionImage, VMLimits, VMResult, assemble, vm_execute, vm_load
from .worker import Receipt, WorkerEnclave, verify_receipt

__version__ = "0.1.0"

__all__ = [
    "AttestationRoot", "EnclaveIdentity", "Quote", "derive_identity", "verify_transitive",
    "KeyDistributionEnclave", "KeySet", "PublishedKeys",
    "ScheduleEvent", "SimKernel", "SimTrace",
    "MeterConfig", "SignedMeasurement", "run_metered",
    "BillingPolicy", "ClientContext", "WorkerPool", "client_prepare",
    "client_verify_response", "compute_invoice", "provider_verify_measurement",
    "CostTable", "FunctionImage", "VMLimits", "VMResult", "assemble", "vm_execute", "vm_load",
    "Receipt", "WorkerEnclave", "verify_receipt",
]
