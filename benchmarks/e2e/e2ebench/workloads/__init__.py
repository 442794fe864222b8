"""The four workloads; each module defines one :class:`~e2ebench.harness.Workload`."""

import importlib

#: workload name -> (module, class); imported lazily so a run only pays for
#: the ``repro`` subsystems its workload uses.
_REGISTRY = {
    "campaign": ("e2ebench.workloads.campaign", "CampaignWorkload"),
    "plan_ingest": ("e2ebench.workloads.plan_ingest", "PlanIngestWorkload"),
    "tpch_exec": ("e2ebench.workloads.tpch_exec", "TpchExecWorkload"),
    "service_mix": ("e2ebench.workloads.service_mix", "ServiceMixWorkload"),
}


def load(name: str):
    """The workload class called *name*."""
    module_name, class_name = _REGISTRY[name]
    return getattr(importlib.import_module(module_name), class_name)
