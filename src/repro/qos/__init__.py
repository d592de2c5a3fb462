"""Multi-tenant admission & QoS for the serving stack.

The paper treats scheduling as a bi-objective resource-allocation
problem; this package applies the same lens to the serving stack itself.
Worker capacity is the machine set, tenants are the jobs competing for
it, and the one dequeue discipline that decides who is admitted next
is the repo's own list-scheduling ledger transposed
(:mod:`repro.qos.fairshare`).  The pieces:

* :mod:`repro.qos.tenants` — :class:`TenantConfig` /
  :class:`TenantRegistry` (quota, rate, weight, priority class) and the
  structured rejection errors with stable wire codes;
* :mod:`repro.qos.bucket` — the token-bucket rate limiter;
* :mod:`repro.qos.fairshare` — the weighted-fair dequeue ledger (the
  Graham ledger transposed);
* :mod:`repro.qos.queue` — the priority-class-first, weighted-fair
  admission queue over a bounded slot pool;
* :mod:`repro.qos.admission` — :class:`AdmissionController`, the one
  object a serving process consults per request (rate → quota →
  backpressure → fair dequeue) and reports per-tenant stats from;
* :mod:`repro.qos.stats` — the tenant snapshot shape and the
  cluster-wide cross-shard merge.

Configure it by handing a tenants file (or mapping, or registry) to
:class:`~repro.service.config.ServiceConfig` /
:class:`~repro.cluster.config.ClusterConfig` — or ``repro serve
--tenants tenants.json``.  With no tenants configured the whole layer
is inert and the serving stack behaves exactly as before.
"""

from .admission import AdmissionController
from .bucket import TokenBucket
from .fairshare import FairShareLedger
from .queue import AdmissionQueue
from .stats import merge_tenant_snapshots, tenant_snapshot
from .tenants import (
    CLASS_URGENCY,
    PRIORITY_CLASSES,
    BackpressureError,
    OverQuotaError,
    QosError,
    RateLimitedError,
    TenantConfig,
    TenantRegistry,
    UnknownTenantError,
    load_tenants,
)

__all__ = [
    "AdmissionController",
    "AdmissionQueue",
    "TokenBucket",
    "FairShareLedger",
    "merge_tenant_snapshots",
    "tenant_snapshot",
    "CLASS_URGENCY",
    "PRIORITY_CLASSES",
    "BackpressureError",
    "OverQuotaError",
    "QosError",
    "RateLimitedError",
    "TenantConfig",
    "TenantRegistry",
    "UnknownTenantError",
    "load_tenants",
]
