"""Kubernetes substrate: API server, scheduler, kubelet, metrics server.

A deliberately faithful (if compact) control plane: pods are objects in
an API server, a scheduler binds them to nodes respecting capacity and
RuntimeClass support, and each node's kubelet makes the CRI calls on its
node's containerd to realize them. The metrics server scrapes per-pod
cgroup working sets — the measurement channel of Figs 3 and 6.
"""

from repro.k8s.objects import (
    Pod,
    PodSpec,
    ContainerSpec,
    PodPhase,
    RestartPolicy,
    NodeInfo,
    RuntimeClass,
)
from repro.k8s.apiserver import APIServer
from repro.k8s.backoff import BackoffPolicy, BackoffTracker
from repro.k8s.scheduler import Scheduler
from repro.k8s.kubelet import Kubelet
from repro.k8s.metrics_server import MetricsServer, PodMetrics
from repro.k8s.cluster import Cluster, build_cluster

__all__ = [
    "Pod",
    "PodSpec",
    "ContainerSpec",
    "PodPhase",
    "RestartPolicy",
    "NodeInfo",
    "RuntimeClass",
    "APIServer",
    "BackoffPolicy",
    "BackoffTracker",
    "Scheduler",
    "Kubelet",
    "MetricsServer",
    "PodMetrics",
    "Cluster",
    "build_cluster",
]
